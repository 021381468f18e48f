"""Command line front end.

Verdict-producing subcommands exit 0 for Proved, 1 for Refuted and 2
for Inconclusive; a certificate/computation mismatch exits 3, as do
malformed inputs. Everything printed is JSON except DOT output, and
reports are byte-stable apart from the timing field.
"""

import argparse
import sys
import time

from . import io
from .codes import degree, fiber_product, lift_code
from .errors import (
    BudgetExceeded,
    ConsistencyFault,
    NotFiniteToOne,
    ShiftLabError,
)
from .graph import find_magic_word
from .openness import (
    check_open,
    check_right_continuing_retract,
    check_semi_open,
)
from .properties import TrialConfig, proptest, replay
from .shifts import entropy, fischer_cover
from .theorems import certificates

EXIT_PROVED = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_FAULT = 3

_VERDICT_EXIT = {
    "Proved": EXIT_PROVED,
    "Refuted": EXIT_REFUTED,
    "Inconclusive": EXIT_INCONCLUSIVE,
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage, which would collide with Inconclusive
    def error(self, message):
        self.exit(EXIT_FAULT, f"{self.prog}: {message}\n")


def _emit(obj):
    sys.stdout.write(io.dumps(obj))


def _cert_json(cert):
    return {
        "tag": cert.tag,
        "hypotheses": list(cert.hypotheses),
        "conclusion": cert.conclusion,
    }


def cmd_fischer(args):
    x = io.load_shift(args.input)
    cover = fischer_cover(x)
    io.save_json(args.output, io.graph_to_json(cover))
    _emit({"vertices": len(cover.vertices), "edges": len(cover.edges)})
    return EXIT_PROVED


def cmd_entropy(args):
    x = io.load_shift(args.input)
    print(f"{entropy(x):.12f}")
    return EXIT_PROVED


def cmd_magic(args):
    word = find_magic_word(io.load_graph(args.input))
    _emit({"magic_word": None if word is None else list(word)})
    return EXIT_PROVED if word is not None else EXIT_REFUTED


def cmd_degree(args):
    x = io.load_shift(args.domain)
    code = io.load_code(args.code, x)
    try:
        res = degree(code)
    except NotFiniteToOne as exc:
        _emit({"degree": None, "reason": str(exc)})
        return EXIT_REFUTED
    _emit({"degree": res.degree, "word": list(res.word), "index": res.index})
    return EXIT_PROVED


def _load_paired_code(code_path, shift_path):
    domain = io.load_shift(shift_path) if shift_path else None
    return io.load_code(code_path, domain)


def cmd_fiber(args):
    phi1 = _load_paired_code(args.code1, args.domain1)
    phi2 = _load_paired_code(args.code2, args.domain2)
    product = fiber_product(phi1, phi2)
    io.save_json(args.output, io.shift_to_json(product.sigma))
    _emit({
        "sigma_vertices": len(product.sigma.presentation.vertices),
        "sigma_edges": len(product.sigma.presentation.edges),
        "alphabet": list(product.sigma.alphabet),
    })
    return EXIT_PROVED


def cmd_lift(args):
    x1 = io.load_shift(args.domain1)
    x2 = io.load_shift(args.domain2)
    f = io.load_code(args.code, x1)
    lifted = lift_code(f, x1, x2, w_max=args.wmax)
    if lifted is None:
        _emit({"lift": None, "wmax": args.wmax})
        return EXIT_INCONCLUSIVE
    payload = io.code_to_json(lifted, embed_domain=True)
    if args.output:
        io.save_json(args.output, payload)
    _emit(payload)
    return EXIT_PROVED


def cmd_check(args):
    x = io.load_shift(args.domain)
    code = io.load_code(args.code, x)
    started = time.monotonic()
    table = None
    if args.mode == "semi-open":
        dec, table = check_semi_open(code, args.lmax)
        context = {"semi_open": dec}
    elif args.mode == "open":
        dec, table = check_open(code, args.lmax, args.kmax)
        # open proves semi-open, but a failed open check decides nothing
        context = {"semi_open": dec} if dec.is_proved else {}
    else:
        rd = check_right_continuing_retract(code, args.retract, args.side)
        dec = rd.verdict
        context = {"retract": rd}
    certs = certificates(code, context)
    report = {
        "mode": args.mode,
        "verdict": dec.verdict,
        "payload": dec.to_json()["payload"],
        "table": None if table is None else table.to_json(),
        "certificates": [_cert_json(c) for c in certs],
        "timing_ms": int((time.monotonic() - started) * 1000),
    }
    if args.report:
        io.save_json(args.report, report)
    _emit(report)
    return _VERDICT_EXIT[dec.verdict]


def cmd_proptest(args):
    cfg = TrialConfig(args.property, args.seed, args.trials,
                      args.max_vertices, args.max_alphabet)
    report = proptest(cfg)
    if args.output:
        io.save_json(args.output, report)
    _emit(report)
    return EXIT_PROVED if report["counts"]["forbidden"] == 0 else EXIT_REFUTED


def cmd_replay(args):
    failure = io.load_json(args.input)
    result = replay(failure)
    reproduced = result["status"] == "forbidden"
    _emit({"status": result["status"], "reproduced": reproduced})
    return EXIT_PROVED if reproduced else EXIT_REFUTED


def cmd_export_dot(args):
    obj = io.load_json(args.input)
    if isinstance(obj, dict) and "kind" in obj:
        g = io.shift_from_json(obj).presentation
    else:
        g = io.graph_from_json(obj)
    text = io.graph_to_dot(g)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_PROVED


def _parser():
    parser = _Parser(prog="shiftlab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fischer", help="minimal right-resolving cover")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_fischer)

    p = sub.add_parser("entropy", help="topological entropy, 12 decimals")
    p.add_argument("-i", "--input", required=True)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("magic", help="shortest focusing word of a cover")
    p.add_argument("-i", "--input", required=True)
    p.set_defaults(func=cmd_magic)

    p = sub.add_parser("degree", help="minimal fiber size of a code")
    p.add_argument("-x", "--domain", required=True)
    p.add_argument("-c", "--code", required=True)
    p.set_defaults(func=cmd_degree)

    p = sub.add_parser("fiber", help="fiber product of two codes")
    p.add_argument("-c1", "--code1", required=True)
    p.add_argument("-c2", "--code2", required=True)
    p.add_argument("-x1", "--domain1",
                   help="domain shift when not embedded in the code file")
    p.add_argument("-x2", "--domain2",
                   help="domain shift when not embedded in the code file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_fiber)

    p = sub.add_parser("lift", help="lift a code to the minimal covers")
    p.add_argument("-f", "--code", required=True)
    p.add_argument("-x1", "--domain1", required=True)
    p.add_argument("-x2", "--domain2", required=True)
    p.add_argument("--wmax", type=int, default=6)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("check", help="decide a map property with report")
    p.add_argument("mode", choices=("semi-open", "open", "right-continuing"))
    p.add_argument("-x", "--domain", required=True)
    p.add_argument("-c", "--code", required=True)
    p.add_argument("--lmax", type=int, default=4)
    p.add_argument("--kmax", type=int, default=12,
                   help="check open only: the largest finite uniform "
                        "window half-length beyond the zone's half-width "
                        "it reports; an infinite one is refuted")
    p.add_argument("--retract", type=int, default=0)
    p.add_argument("--side", choices=("right", "left", "bi"), default="right")
    p.add_argument("--report")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("proptest", help="run one theorem-consistency suite")
    p.add_argument("-p", "--property", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--max-vertices", type=int, default=6)
    p.add_argument("--max-alphabet", type=int, default=3)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_proptest)

    p = sub.add_parser("replay", help="re-run one serialized suite failure")
    p.add_argument("-i", "--input", required=True)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("export-dot", help="graph or shift JSON to DOT")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConsistencyFault as fault:
        print(f"shiftlab: consistency fault: {fault}", file=sys.stderr)
        return EXIT_FAULT
    except BudgetExceeded as exc:
        _emit({"verdict": "Inconclusive", "reason": "budget",
               "detail": str(exc)})
        return EXIT_INCONCLUSIVE
    except ShiftLabError as exc:
        print(f"shiftlab: {exc}", file=sys.stderr)
        return EXIT_FAULT
    except OSError as exc:
        print(f"shiftlab: {exc}", file=sys.stderr)
        return EXIT_FAULT


if __name__ == "__main__":
    sys.exit(main())
