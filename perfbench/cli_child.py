"""Run ``repro.cli.main`` in a child process, traced or not.

Usage::

    python3 perfbench/cli_child.py OUT.json TRACE ARGV...

With ``TRACE`` 1 the layer functions are wrapped (modules are patched as
they import, so the child imports what ``python -m repro`` would) and
the spans go to ``OUT.json``.  With ``TRACE`` 0 nothing is wrapped and
``OUT.json`` records ``len(sys.modules)`` after the run: the module
count of an untraced CLI process.
"""

import sys


def main() -> int:
    out_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = None
    if trace:
        from layers import CLI_IMPORT_SPAN, TARGETS
        from tracer import Tracer

        tracer = Tracer(TARGETS)
        tracer.install()
        with tracer.span(CLI_IMPORT_SPAN):
            import repro.cli
    else:
        import repro.cli
    rc = repro.cli.main(argv)
    modules = len(sys.modules)

    import json

    record = {"rc": rc, "modules": modules}
    if tracer is not None:
        tracer.uninstall()
        record["spans"] = sorted(tracer.spans)
        record["counters"] = dict(tracer.counters)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main())
