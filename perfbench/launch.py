"""Start one recalib CLI process the way the benchmark times it.

    python3 perfbench/launch.py [--trace FILE --op N] -- <recalib arguments>

Puts the checkout's ``src`` first on the import path and calls
``recalib.cli.main``. With ``--trace`` it also installs the benchmark's
wrappers, records the import and the whole in-process run as spans, and
writes every span to FILE when the command ends. Untraced benchmark ops
use this launcher too, so both pay the same start-up.
"""

import sys
from time import perf_counter

T0 = perf_counter()

import os  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv: list[str]) -> int:
    split = argv.index("--")
    opts, args = argv[:split], argv[split + 1:]
    trace_path = opts[opts.index("--trace") + 1] if "--trace" in opts else None
    if trace_path is None:
        import recalib.cli
        return _run_cli(recalib.cli.main, args)

    sys.path.insert(0, HERE)
    from tracer import Tracer

    tracer = Tracer()
    tracer.op = int(opts[opts.index("--op") + 1])
    code = 1
    try:
        with tracer.span("cli.process", start=T0):
            with tracer.span("cli.import"):
                import recalib.cli
            tracer.install()
            code = _run_cli(recalib.cli.main, args)
    finally:
        tracer.uninstall()
        tracer.dump(trace_path)
    return code


def _run_cli(group, args: list[str]) -> int:
    try:
        group.main(args=args, prog_name="recalib", standalone_mode=True)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
