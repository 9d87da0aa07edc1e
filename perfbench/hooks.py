"""Where the traced run taps the program: one function per layer.

Each function wraps the public entry points of one layer (named after
its module) so that calls open frames on the :class:`~spans.Tracer`.
Instance-level wrappers go on the objects the benchmark itself builds
(the pulse store, the result cache, the journal, the engine, the
clients); class- and module-level ones are undone by
:meth:`~spans.Patches.undo` when the run ends.

Frame names, by layer:

==========================  ============================================
``compiler.batch``          ``engine.job`` (one compiled job),
                            ``service.job`` (the service's job entry),
                            ``prewarm.plan``
``compiler.passes``         ``pass.<name>`` via ``pass_callbacks``
``control.unit``            ``ocu.latency``, ``ocu.model_latency`` (leaf)
``control.grape``           ``grape.synthesize``
``control.cache``           ``pulse_cache.get`` / ``.put`` (leaf),
                            ``pulse_cache.merge``, ``pulse_cache.lease``
``compiler.result_cache``   ``result_cache.get`` / ``.put``
``ir.serialize``            ``ir.result_to_dict`` / ``ir.result_from_dict``
``control.cache.protocol``  ``wire.<side>.send`` / ``wire.<side>.recv``
``service.journal``         ``journal.record`` / ``journal.write_result``
``service.server``          ``service.dispatch``
``service.client``          ``client.submit`` / ``client.wait`` /
                            ``client.poll``
==========================  ============================================
"""

from __future__ import annotations

#: Frame-name prefix -> layer (module) it belongs to, longest first.
LAYER_OF_PREFIX = (
    ("engine.", "compiler.batch"),
    ("service.job", "compiler.batch"),
    ("prewarm.", "compiler.batch"),
    ("pass.", "compiler.passes"),
    ("ocu.", "control.unit"),
    ("grape.", "control.grape"),
    ("pulse_cache.", "control.cache"),
    ("result_cache.", "compiler.result_cache"),
    ("ir.", "ir.serialize"),
    ("wire.", "control.cache.protocol"),
    ("journal.", "service.journal"),
    ("service.dispatch", "service.server"),
    ("client.", "service.client"),
)

LAYERS = tuple(dict.fromkeys(layer for _, layer in LAYER_OF_PREFIX))


def layer_of(name: str) -> str | None:
    for prefix, layer in LAYER_OF_PREFIX:
        if name.startswith(prefix):
            return layer
    return None


def _label_of_job(args, kwargs):
    job = args[0] if args else kwargs.get("job")
    return getattr(job, "label", None)


def _label_of_record(args, kwargs):
    record = args[0] if args else kwargs.get("record")
    return record.get("label") or record.get("job_id")


def _job_of_request(args, kwargs):
    request = args[0] if args else kwargs.get("request")
    envelope = request.get("job")
    if isinstance(envelope, dict):
        return envelope.get("label")
    return request.get("job_id")


def install_program(tracer, patches) -> None:
    """Class- and module-level taps shared by every workload."""
    import repro.control.cache.client as cache_client
    import repro.control.cache.server as cache_server
    import repro.ir.serialize as serialize
    import repro.service.client as service_client
    import repro.service.server as service_server
    from repro.control.unit import OptimalControlUnit

    patches.replace(
        OptimalControlUnit,
        "latency",
        lambda f: tracer.wrap("ocu.latency", f, keep=False),
    )
    patches.replace(
        OptimalControlUnit,
        "model_latency",
        lambda f: tracer.wrap("ocu.model_latency", f, keep=False),
    )
    patches.replace(
        OptimalControlUnit,
        "synthesize_pulse",
        lambda f: tracer.wrap("grape.synthesize", f),
    )
    for name in ("result_to_dict", "result_from_dict"):
        patches.replace(
            serialize, name, lambda f, n=name: tracer.wrap(f"ir.{n}", f)
        )
    # Both wire stacks import the frame functions by name, so each
    # importing module gets its own tap; the side names which end of the
    # connection the frame crossed.
    for module, side in (
        (service_client, "client"),
        (service_server, "server"),
        (cache_client, "cache_client"),
        (cache_server, "cache_server"),
    ):
        patches.replace(
            module,
            "send_message",
            lambda f, s=side: tracer.wrap_wire(f"wire.{s}.send", f, False),
        )
        patches.replace(
            module,
            "recv_message",
            lambda f, s=side: tracer.wrap_wire(f"wire.{s}.recv", f, True),
        )


def install_engine(tracer, patches, engine) -> None:
    """Job frames on one :class:`BatchCompiler`.

    ``_run_job`` is the per-job funnel both ``compile_batch`` and
    ``run_job`` go through; when a later version renames it the job
    frames disappear and passes attach to the thread's root frame.
    """
    patches.replace(
        engine,
        "_run_job",
        lambda f: tracer.wrap("engine.job", f, job_of=_label_of_job),
    )
    patches.replace(
        engine,
        "run_job",
        lambda f: tracer.wrap("service.job", f, job_of=_label_of_job),
    )
    patches.replace(
        engine, "plan_prewarm", lambda f: tracer.wrap("prewarm.plan", f)
    )


def install_store(tracer, patches, store) -> None:
    """Pulse-store taps on the one store object the benchmark built."""
    for method, name, keep in (
        ("get_latency", "pulse_cache.get", False),
        ("get_pulse", "pulse_cache.get", False),
        ("put_latency", "pulse_cache.put", False),
        ("put_pulse", "pulse_cache.put", False),
        ("merge_delta", "pulse_cache.merge", True),
    ):
        patches.replace(
            store, method, lambda f, n=name, k=keep: tracer.wrap(n, f, keep=k)
        )
    patches.replace(
        store,
        "exclusive",
        lambda f: tracer.wrap_context("pulse_cache.lease", f),
    )


def install_result_cache(tracer, patches, result_cache) -> None:
    for method in ("get", "put"):
        patches.replace(
            result_cache,
            method,
            lambda f, m=method: tracer.wrap(f"result_cache.{m}", f),
        )


def install_service(tracer, patches, service) -> None:
    patches.replace(
        service,
        "dispatch",
        lambda f: tracer.wrap("service.dispatch", f, job_of=_job_of_request),
    )
    journal = service.journal
    if journal is not None:
        patches.replace(
            journal,
            "record",
            lambda f: tracer.wrap("journal.record", f, job_of=_label_of_record),
        )
        patches.replace(
            journal,
            "write_result",
            lambda f: tracer.wrap("journal.write_result", f),
        )


def install_client(tracer, patches, client) -> None:
    patches.replace(
        client,
        "submit_job",
        lambda f: tracer.wrap("client.submit", f, job_of=_label_of_job),
    )
    patches.replace(client, "wait", lambda f: tracer.wrap("client.wait", f))
    patches.replace(client, "result", lambda f: tracer.wrap("client.poll", f))
