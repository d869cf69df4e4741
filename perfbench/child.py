"""The process one benchmark pass runs in.

    python3 perfbench/child.py setup SECTION
        import flagdual.cli, load the input section (``-`` is the published
        script matrix, otherwise a QQ matrix file), print ``ready``, exit.
    python3 perfbench/child.py generic SECTION OUT [--spans PATH]
        the generic-section claims for one QQ section; results to OUT.
    python3 perfbench/child.py cli --spans PATH -- ARGS...
        ``flagdual ARGS...`` with the tracer installed.

Untraced ``verify-paper`` passes do not come here: they run
``python3 -m flagdual.cli`` itself.
"""
from __future__ import annotations

import json
import sys


def load_section(path: str):
    from flagdual import cli
    from flagdual.exactalg import GF, QQ, parse_matrix
    from flagdual.grassflag import SectionMatrix
    if path == "-":
        return cli.load_section(cli.RunConfig(), GF(17))
    with open(path) as fh:
        return SectionMatrix(parse_matrix(fh.read(), QQ))


def generic(section_path: str, out_path: str):
    from flagdual.duality import (charpoly_squarefree, commutant_space,
                                  nonbirational_certificate)
    s = load_section(section_path)
    commutant = commutant_space(s)
    result = {
        "commutant": [[[str(x) for x in row] for row in m.data]
                      for m in commutant.basis],
        "charpoly_squarefree": charpoly_squarefree(s),
        "certificate": nonbirational_certificate(s, 17).as_dict(),
    }
    with open(out_path, "w") as fh:
        json.dump(result, fh)


def main(argv):
    mode = argv[0]
    if mode == "setup":
        import flagdual.cli  # noqa: F401  (the import is what is timed)
        load_section(argv[1])
        print("ready", flush=True)
        return 0
    spans = None
    if "--spans" in argv:
        k = argv.index("--spans")
        spans = argv[k + 1]
        argv = argv[:k] + argv[k + 2:]
    tracer = None
    if spans:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    code = 0
    try:
        if mode == "generic":
            generic(argv[1], argv[2])
        elif mode == "cli":
            from flagdual import cli
            args = argv[argv.index("--") + 1:]
            try:
                cli.main(args=args, prog_name="flagdual")
            except SystemExit as exc:
                code = exc.code or 0
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    finally:
        if tracer is not None:
            tracer.dump(spans)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
