"""Command-line front end: compute, oracle, gen, selftest, bench.

compute prints one machine-parseable line `<distance|INF>\t<k>\t<seed>\t<rounds>`,
where <rounds> counts the level-sampling rounds run, 0 when none ran; at
TEDK_LOG=INFO its log line also gives the lower bound that ended them and
the time spent reading and parsing the two files (parse_ms).
oracle prints the same line with seed and rounds 0.  Each exact DP run
(oracle, compute --k 0 and compute --verify) logs one more INFO line with
n, k, parse_ms and the DP's work counts.  Both exit 0 on success,
2 on parse errors and unreadable inputs, 3 on bad flags; compute --audit
recomputes the look-ahead classes under a second fingerprint base and exits
1 when the two disagree.  gen exits 2 when it cannot write --out or --out2,
and 3, before it interns a label or generates a node, when a size flag
exceeds its bound: --n MAX_N = 2^22 nodes, --sigma MAX_SIGMA = 2^20 labels
(all interned up front), --plant-k MAX_PLANT_K = 2^7 (a mixed plant adds
up to 144·k^2 nodes) and --edits MAX_EDITS = 2^10 (each edit rebuilds the
forest).  gen --format json also exits 3, before it opens any file, when a
forest has more than JSON_MAX_HEIGHT = 400 levels, the most JSON holds.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time

import numpy as np

from .engine import EngineConfig, run as engine_run
from .errors import FingerprintCollisionError, ParseError
from .forest import (LabeledForest, LabelInterner, parse_json_text,
                     parse_paren_text, serialize_json, serialize_paren)
from .generate import (alphabet, apply_random_edits, plant_horizontal,
                       plant_vertical, random_forest)
from .oracle import DP_COUNTS, INF, ted_threshold

log = logging.getLogger("tedk")

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_PARSE = 2
EXIT_USAGE = 3

MAX_N = 1 << 22
MAX_SIGMA = 1 << 20
MAX_PLANT_K = 1 << 7
MAX_EDITS = 1 << 10
GEN_BOUNDS = (("--n", "n", MAX_N), ("--sigma", "sigma", MAX_SIGMA),
              ("--plant-k", "plant_k", MAX_PLANT_K),
              ("--edits", "edits", MAX_EDITS))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _setup_logging() -> None:
    level = os.environ.get("TEDK_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(name)s %(levelname)s %(message)s")


def _load(path: str, fmt: str, interner: LabelInterner) -> LabeledForest:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc}") from None
    if fmt == "json":
        return parse_json_text(text, interner)
    return parse_paren_text(text, interner)


def _load_pair(args) -> tuple[LabeledForest, LabeledForest, float] | int:
    """fileF and fileG parsed with one fresh interner, and the milliseconds
    the two reads and parses took; or EXIT_PARSE after a parse error line
    when either cannot be read or parsed."""
    interner = LabelInterner()
    t0 = time.perf_counter()
    try:
        F = _load(args.fileF, args.format, interner)
        G = _load(args.fileG, args.format, interner)
    except (ParseError, OSError) as exc:
        sys.stderr.write(f"tedk: parse error: {exc}\n")
        return EXIT_PARSE
    return F, G, 1e3 * (time.perf_counter() - t0)


def _fmt_value(v) -> str:
    return "INF" if v == INF else str(int(v))


def _natural(raw: str, least: int = 0) -> int:
    """--seed value, and with least=1 a --rounds count: an integer >= `least`
    (else a usage error)."""
    if not raw.isdigit() or int(raw) < least:
        raise argparse.ArgumentTypeError(f"expected an integer >= {least}")
    return int(raw)


def _rounds(raw: str) -> int | str:
    """--rounds value: 'auto' or an integer >= 1 (else a usage error)."""
    return raw if raw == "auto" else _natural(raw, 1)


def _build_parser() -> _Parser:
    p = _Parser(prog="tedk", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def inputs(sp):
        sp.add_argument("fileF")
        sp.add_argument("fileG")
        sp.add_argument("--k", type=int, required=True)
        sp.add_argument("--format", choices=("paren", "json"), default="paren")

    def engine_flags(sp):
        sp.add_argument("--seed", type=_natural, default=0)
        sp.add_argument("--rounds", type=_rounds, default="auto")

    c = sub.add_parser("compute", help="bounded distance via the main engine")
    inputs(c)
    engine_flags(c)
    c.add_argument("--verify", action="store_true",
                   help="run both engine and oracle and compare")
    c.add_argument("--audit", action="store_true",
                   help="check the fingerprint classes under a second base")

    o = sub.add_parser("oracle", help="bounded distance via the exact DP")
    inputs(o)

    g = sub.add_parser("gen", help="generate reproducible forests")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--height", type=int, default=6)
    g.add_argument("--sigma", type=int, default=4)
    g.add_argument("--seed", type=_natural, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--format", choices=("paren", "json"), default="paren")
    g.add_argument("--plant", choices=("none", "horizontal", "vertical", "mixed"),
                   default="none")
    g.add_argument("--plant-k", type=int, default=2,
                   help="threshold scale for planted period sizes")
    g.add_argument("--out2", help="also write a mutated copy")
    g.add_argument("--edits", type=int, default=1,
                   help="edit-script length for --out2")

    s = sub.add_parser("selftest", help="run the built-in acceptance suites")
    s.add_argument("--level", choices=("quick", "full"), default="quick")

    b = sub.add_parser("bench", help="time one computation, CSV output")
    inputs(b)
    engine_flags(b)
    return p


def _k_below(k: int, least: int) -> bool:
    """Report --k below `least` as a usage error: compute and oracle answer
    k = 0 through the exact DP, bench times the engine, which needs k >= 1."""
    if k >= least:
        return False
    sys.stderr.write(f"tedk: error: --k must be >= {least}\n")
    return True


def _oracle(F: LabeledForest, G: LabeledForest, k: int,
            parse_ms: float) -> int | float:
    """`ted_threshold`, with one INFO line holding the DP's work counts
    (0 when an exit before the DP answers)."""
    stats: dict = {}
    value = ted_threshold(F, G, k, stats)
    log.info("oracle n=%d k=%d parse_ms=%.1f %s", F.n + G.n, k, parse_ms,
             " ".join(f"{key}={stats.get(key, 0)}" for key in DP_COUNTS))
    return value


def _cmd_compute(args, exact_only: bool) -> int:
    if _k_below(args.k, 0):
        return EXIT_USAGE
    loaded = _load_pair(args)
    if isinstance(loaded, int):
        return loaded
    F, G, parse_ms = loaded
    rounds_run = 0
    if exact_only or args.k == 0:
        value = _oracle(F, G, args.k, parse_ms)
    else:
        cfg = EngineConfig(k=args.k, seed=args.seed, rounds=args.rounds,
                           audit=args.audit)
        try:
            rep = engine_run(F, G, cfg)
        except FingerprintCollisionError as exc:
            sys.stderr.write(f"tedk: audit failed: {exc}\n")
            return EXIT_FAILED
        value, rounds_run = rep.value, rep.rounds
        log.info("n=%d k=%d parse_ms=%.1f rounds=%d kept=%d bound=%s "
                 "timings=%s", F.n + G.n, args.k, parse_ms, rep.rounds,
                 rep.kept, _fmt_value(rep.bound),
                 {p: round(v, 1) for p, v in rep.timings.items()})
        if args.verify:
            want = _oracle(F, G, args.k, parse_ms)
            if value != want:
                sys.stderr.write(
                    f"tedk: verify failed: engine={_fmt_value(value)} "
                    f"oracle={_fmt_value(want)}\n")
                return EXIT_FAILED
    seed = 0 if exact_only else args.seed
    print(f"{_fmt_value(value)}\t{args.k}\t{seed}\t{rounds_run}")
    return EXIT_OK


def _cmd_gen(args) -> int:
    if (args.n < 0 or args.sigma < 1 or (args.n > 0 and args.height < 1)
            or args.plant_k < 1 or args.edits < 0):
        sys.stderr.write("tedk: error: bad gen parameters\n")
        return EXIT_USAGE
    for flag, attr, bound in GEN_BOUNDS:
        if getattr(args, attr) > bound:
            sys.stderr.write(f"tedk: error: {flag} must be <= {bound}\n")
            return EXIT_USAGE
    interner = LabelInterner()
    syms = alphabet(interner, args.sigma)
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=(args.seed, 0x6E9))))
    F = random_forest(rng, args.n, max(1, args.height), syms)
    if args.plant in ("horizontal", "mixed"):
        F = plant_horizontal(rng, F, args.plant_k, syms)
    if args.plant in ("vertical", "mixed"):
        F = plant_vertical(rng, F, args.plant_k, syms)
    writer = serialize_json if args.format == "json" else serialize_paren
    outputs = [(args.out, F)]
    if args.out2:
        G = apply_random_edits(rng, F, args.edits, syms)
        outputs.append((args.out2, G))
    try:
        texts = [(path, writer(H, interner)) for path, H in outputs]
    except ValueError as exc:
        sys.stderr.write(f"tedk: error: {exc}\n")
        return EXIT_USAGE
    try:
        for path, text in texts:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
    except OSError as exc:
        sys.stderr.write(f"tedk: error: {exc}\n")
        return EXIT_PARSE
    return EXIT_OK


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest
    return EXIT_OK if run_selftest(args.level) else EXIT_FAILED


def _cmd_bench(args) -> int:
    if _k_below(args.k, 1):
        return EXIT_USAGE
    loaded = _load_pair(args)
    if isinstance(loaded, int):
        return loaded
    F, G, _ = loaded
    cfg = EngineConfig(k=args.k, seed=args.seed, rounds=args.rounds)
    t0 = time.perf_counter()
    rep = engine_run(F, G, cfg)
    wall = 1e3 * (time.perf_counter() - t0)
    t = rep.timings
    print("n,k,wall_ms,reduction_ms,anchor_ms,rounds_ms,residual_ms,value")
    print(f"{F.n + G.n},{args.k},{wall:.1f},{t.get('reduction_ms', 0):.1f},"
          f"{t.get('anchor_ms', 0):.1f},{t.get('rounds_ms', 0):.1f},"
          f"{t.get('residual_ms', 0):.1f},{_fmt_value(rep.value)}")
    return EXIT_OK


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    if args.command == "compute":
        return _cmd_compute(args, exact_only=False)
    if args.command == "oracle":
        return _cmd_compute(args, exact_only=True)
    if args.command == "gen":
        return _cmd_gen(args)
    if args.command == "selftest":
        return _cmd_selftest(args)
    if args.command == "bench":
        return _cmd_bench(args)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
