"""One cold ``fearover`` CLI command in a fresh interpreter.

    python3 bench/cli_child.py [--trace SUMMARY.json] -- run --scenario X.ini ...

Calls ``fearover.cli.main`` with the arguments after ``--`` and exits with
its code.  With ``--trace`` it also times its own imports and the CLI's
layer boundaries, and writes the per-span-name summary to SUMMARY.json.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv: list[str]) -> int:
    split = argv.index("--")
    options, cli_args = argv[:split], argv[split + 1:]
    if not options:
        import fearover.cli

        return fearover.cli.main(cli_args)

    import json

    from spans import Tracer, installed

    tracer = Tracer()
    with tracer.span("cli.import"):
        with tracer.span("cli.import_numpy"):
            import numpy  # noqa: F401
        import fearover.cli
    with installed(tracer):
        code = fearover.cli.main(cli_args)
    summary = {"spans": tracer.summarize(), "root_ns": tracer.root_ns(0)}
    Path(options[1]).write_text(json.dumps(summary), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
