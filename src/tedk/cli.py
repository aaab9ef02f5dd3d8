"""Command-line front end: compute, oracle, gen, selftest, bench.

compute prints one machine-parseable line `<distance|INF>\t<k>\t<seed>\t<rounds>`
and exits 0 on success, 2 on parse errors, 3 on bad flags.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time

import numpy as np

from .engine import EngineConfig, run as engine_run
from .errors import ParseError
from .forest import (LabeledForest, LabelInterner, parse_json_text,
                     parse_paren_text, serialize_json, serialize_paren)
from .generate import (alphabet, apply_random_edits, plant_horizontal,
                       plant_vertical, random_forest)
from .oracle import INF, ted_threshold

log = logging.getLogger("tedk")

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_PARSE = 2
EXIT_USAGE = 3


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


def _fmt_value(v) -> str:
    return "INF" if v == INF else str(int(v))


def _build_parser() -> _Parser:
    p = _Parser(prog="tedk", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--k", type=int, required=True)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--rounds", default="auto")
        sp.add_argument("--format", choices=("paren", "json"), default="paren")
        sp.add_argument("--threads", type=int, default=1)

    c = sub.add_parser("compute", help="bounded distance via the main engine")
    c.add_argument("fileF")
    c.add_argument("fileG")
    common(c)
    c.add_argument("--oracle", action="store_true",
                   help="route to the exact DP instead of the engine")
    c.add_argument("--verify", action="store_true",
                   help="run both engine and oracle and compare")

    o = sub.add_parser("oracle", help="bounded distance via the exact DP")
    o.add_argument("fileF")
    o.add_argument("fileG")
    common(o)

    g = sub.add_parser("gen", help="generate reproducible forests")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--height", type=int, default=6)
    g.add_argument("--sigma", type=int, default=4)
    g.add_argument("--seed", type=int, default=0)
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
    b.add_argument("fileF")
    b.add_argument("fileG")
    common(b)
    return p


def _rounds_arg(raw) -> int | str:
    if raw == "auto":
        return "auto"
    try:
        return int(raw)
    except ValueError:
        raise SystemExit(EXIT_USAGE)


def _cmd_compute(args, exact_only: bool) -> int:
    interner = LabelInterner()
    if args.k < 0:
        sys.stderr.write("tedk: error: --k must be non-negative\n")
        return EXIT_USAGE
    try:
        F = _load(args.fileF, args.format, interner)
        G = _load(args.fileG, args.format, interner)
    except ParseError as exc:
        sys.stderr.write(f"tedk: parse error: {exc}\n")
        return EXIT_PARSE
    except OSError as exc:
        sys.stderr.write(f"tedk: parse error: {exc}\n")
        return EXIT_PARSE
    use_oracle = exact_only or getattr(args, "oracle", False)
    verify = getattr(args, "verify", False)
    rounds_run = 0
    if use_oracle and not verify:
        value = ted_threshold(F, G, args.k)
    else:
        if args.k == 0:
            value = ted_threshold(F, G, 0)
        else:
            cfg = EngineConfig(k=args.k, seed=args.seed,
                               rounds=_rounds_arg(args.rounds),
                               threads=args.threads)
            rep = engine_run(F, G, cfg, interner)
            value, rounds_run = rep.value, rep.rounds
            log.info("n=%d k=%d rounds=%d kept=%d timings=%s",
                     F.n + G.n, args.k, rep.rounds, rep.kept,
                     {p: f"{v:.1f}" for p, v in rep.timings.items()})
        if verify:
            want = ted_threshold(F, G, args.k)
            if value != want:
                sys.stderr.write(
                    f"tedk: verify failed: engine={_fmt_value(value)} "
                    f"oracle={_fmt_value(want)}\n")
                return EXIT_FAILED
    print(f"{_fmt_value(value)}\t{args.k}\t{args.seed}\t{rounds_run}")
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.n < 0 or args.sigma < 1 or (args.n > 0 and args.height < 1):
        sys.stderr.write("tedk: error: bad gen parameters\n")
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
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(writer(F, interner))
        fh.write("\n")
    if args.out2:
        G = apply_random_edits(rng, F, args.edits, syms)
        with open(args.out2, "w", encoding="utf-8") as fh:
            fh.write(writer(G, interner))
            fh.write("\n")
    return EXIT_OK


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest
    return EXIT_OK if run_selftest(args.level) else EXIT_FAILED


def _cmd_bench(args) -> int:
    interner = LabelInterner()
    try:
        F = _load(args.fileF, args.format, interner)
        G = _load(args.fileG, args.format, interner)
    except (ParseError, OSError) as exc:
        sys.stderr.write(f"tedk: parse error: {exc}\n")
        return EXIT_PARSE
    cfg = EngineConfig(k=args.k, seed=args.seed,
                       rounds=_rounds_arg(args.rounds), threads=args.threads)
    t0 = time.perf_counter()
    rep = engine_run(F, G, cfg, interner)
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
