"""Run one `tailcluster` CLI command with the layer tracer installed.

    python perfbench/traced_cli.py SPANS.json [--alloc-probe] -- CLI ARGS...

Writes the spans and counters to SPANS.json when the command ends and
exits with the command's exit code. tailcluster must be importable
(run.py puts the checkout's src/ on PYTHONPATH).
"""

import sys

from tracing import Tracer


def main(argv) -> int:
    sep = argv.index("--")
    out, flags, cli_args = argv[0], argv[1:sep], argv[sep + 1:]
    import tailcluster.cli

    cli = sys.modules["tailcluster.cli"]
    tracer = Tracer(alloc_probe="--alloc-probe" in flags)
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        tracer.uninstall()
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
