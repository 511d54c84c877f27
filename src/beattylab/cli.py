"""Command-line front end: every subsystem as a subcommand with CSV output.

Conventions: CSV bodies go to stdout (or --out <path>); a JSON run
manifest goes to stderr (or <out>.manifest.json). Rationals are emitted
as numerator/denominator column pairs so exactness survives the file
format. Exit codes: 0 ok, 1 cross-check disagreement (lemma2
--mobius-variant), 2 parameter error, 3 certification failure, 4 guard
violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from fractions import Fraction

from . import __version__
from .certified import CertifiedReal, _AffineEval, beatty_prime_pairs, normalized_statistic
from .congruence import CongruenceQuery, count_direct, count_mobius, deviation_report
from .diophantine import farey_union, fractional_hits_report, lemma1_set, scaling_preimage_bound
from .errors import BoundaryAmbiguous, GuardViolation, ParameterError
from .experiment import (ExperimentConfig, integral_exact, integral_monte_carlo,
                         scan_alpha, scan_svg)
from .intervals import IntervalSet
from .primes import sieve_primes
from .selberg import big_g, product_lower, selberg_upper_bound

EXIT_DISAGREEMENT = 1
EXIT_PARAMETER = 2
EXIT_CERTIFICATION = 3
EXIT_GUARD = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: parameter: {message}", file=sys.stderr)
        raise SystemExit(EXIT_PARAMETER)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"bad rational {text!r}: {exc}") from exc


def _emit(args, header: list[str], rows: list[list], extras: dict,
          stderr_notes: list[str] = (), extra_outputs: list[str] = ()):
    body = ",".join(header) + "\n"
    body += "".join(",".join(str(v) for v in row) + "\n" for row in rows)
    outputs = []
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(body)
        outputs.append(args.out)
    else:
        sys.stdout.write(body)
        outputs.append("stdout")
    outputs.extend(extra_outputs)
    for note in stderr_notes:
        print(note, file=sys.stderr)
    manifest = {
        "command": sys.argv[1:],
        "config_digest": hashlib.sha256(
            json.dumps(extras, sort_keys=True, default=str).encode()).hexdigest(),
        "seed": extras.get("seed"),
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "outputs": outputs,
    }
    if args.out:
        with open(args.out + ".manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
    else:
        print(json.dumps(manifest), file=sys.stderr)


def _apply_config(parser: _Parser, sub: str, argv: list[str]) -> list[str]:
    """Load --config key=value defaults; command-line flags override."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise ParameterError("--config needs a file path")
    path = argv[idx + 1]
    rest = argv[:idx] + argv[idx + 2:]
    pairs = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParameterError(f"bad config line {line!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            pairs.append((key.replace("_", "-"), val))
    prefix = []
    for key, val in pairs:
        if key in ("pin",):  # repeatable flag
            for part in val.split():
                prefix += [f"--{key}", part]
        else:
            prefix += [f"--{key}", val]
    # flags given on the command line come later and win on argparse defaults
    return prefix + rest


def _cmd_pairs(args):
    alpha = CertifiedReal.parse(args.alpha)
    beta = CertifiedReal.parse(args.beta)
    ev = _AffineEval(alpha, beta)
    limit = max(2, args.x, ev.floor(args.x))
    table = sieve_primes(limit)
    pc = beatty_prime_pairs(alpha, beta, args.x, table, want_pairs=args.list)
    extras = {"cmd": "pairs", "alpha": args.alpha, "beta": args.beta, "x": args.x}
    if args.list:
        _emit(args, ["p", "q"], [[p, q] for p, q in pc.pairs], extras,
              [f"count: {pc.count}"])
    else:
        stat = normalized_statistic(pc.count, args.x) if args.x >= 3 else float(pc.count)
        _emit(args, ["alpha_spec", "beta_spec", "x", "count", "statistic"],
              [[alpha.spec_string(), beta.spec_string(), args.x, pc.count, repr(stat)]],
              extras)


def _cmd_scan(args):
    cfg = ExperimentConfig(_fraction(args.c1), _fraction(args.c2),
                           CertifiedReal.parse(args.beta),
                           tuple(int(v) for v in args.x_grid.split(":")),
                           args.samples, args.seed)
    rows = scan_alpha(cfg, pins=tuple(args.pin), threads=args.threads)
    extras = {"cmd": "scan", "c1": args.c1, "c2": args.c2, "beta": args.beta,
              "x_grid": args.x_grid, "samples": args.samples, "seed": args.seed,
              "pins": list(args.pin)}
    notes = []
    svg_outputs = []
    if args.svg:
        pinned_specs = {CertifiedReal.parse(p).spec_string() for p in args.pin}
        plot_rows = [r for r in rows if r.alpha_spec in pinned_specs] or rows
        with open(args.svg, "w") as fh:
            fh.write(scan_svg(plot_rows))
        notes.append(f"svg: {args.svg}")
        svg_outputs.append(args.svg)
    _emit(args, ["alpha_spec", "x", "pair_count", "statistic"],
          [[r.alpha_spec, r.x, r.pair_count, repr(r.statistic)] for r in rows],
          extras, notes, svg_outputs)


def _cmd_integral(args):
    cfg = ExperimentConfig(_fraction(args.c1), _fraction(args.c2),
                           CertifiedReal.parse(args.beta), (args.x,),
                           max(100, args.mc_samples or 100), args.seed)
    exact = integral_exact(cfg, args.x)
    ratio = float(exact) * math.log(args.x) ** 2 / (args.x * float(cfg.c2 - cfg.c1)) \
        if args.x >= 3 else float(exact)
    mc_mean = mc_err = ""
    if args.mc_samples:
        mc = integral_monte_carlo(cfg, args.x)
        mc_mean, mc_err = repr(mc.mean), repr(mc.stderr)
    extras = {"cmd": "integral", "c1": args.c1, "c2": args.c2, "beta": args.beta,
              "x": args.x, "mc_samples": args.mc_samples, "seed": args.seed}
    _emit(args, ["x", "c1", "c2", "beta", "exact_num", "exact_den",
                 "mc_mean", "mc_stderr", "ratio"],
          [[args.x, f"{cfg.c1.numerator}/{cfg.c1.denominator}",
            f"{cfg.c2.numerator}/{cfg.c2.denominator}",
            CertifiedReal.parse(args.beta).spec_string(),
            exact.numerator, exact.denominator, mc_mean, mc_err, repr(ratio)]],
          extras)


def _cmd_lemma1(args):
    c1, c2 = (Fraction(s) for s in args.I.split(","))
    if not 0 <= c1 < c2 <= 1:
        raise ParameterError("lemma1 interval must satisfy 0 <= c1 < c2 <= 1")
    I = IntervalSet.single(c1, c2)
    b, l = _fraction(args.b), _fraction(args.l)
    J = lemma1_set(I, b, l)
    bound = scaling_preimage_bound(I, b, l)
    mes = J.measure()
    extras = {"cmd": "lemma1", "I": args.I, "b": args.b, "l": args.l}
    _emit(args, ["lo_num", "lo_den", "hi_num", "hi_den"],
          [[lo.numerator, lo.denominator, hi.numerator, hi.denominator]
           for lo, hi in J],
          extras,
          [f"measure: {mes.numerator}/{mes.denominator}",
           f"bound: {bound.numerator}/{bound.denominator}",
           f"bound_ok: {str(mes <= bound).lower()}"])


def _cmd_lemma2(args):
    alpha = CertifiedReal.parse(args.alpha)
    beta = CertifiedReal.parse(args.beta)
    rows = deviation_report(alpha, beta, args.x, args.dmax)
    notes = []
    if args.mobius_variant:
        check_max = min(args.dmax, 30)
        for row in rows:
            if row.d > check_max:
                break
            q = CongruenceQuery(alpha, beta, min(args.x, 10_000), row.d)
            if count_mobius(q, variant=args.mobius_variant) != count_direct(q):
                print(f"error: disagreement: mobius variant {args.mobius_variant} "
                      f"differs from the direct count at d={row.d}", file=sys.stderr)
                return EXIT_DISAGREEMENT
        notes.append(f"mobius_variant {args.mobius_variant}: agrees with direct "
                     f"counts for square-free d <= {check_max}")
    extras = {"cmd": "lemma2", "alpha": args.alpha, "beta": args.beta,
              "x": args.x, "dmax": args.dmax}
    _emit(args, ["d", "count", "main_term_num", "main_term_den",
                 "abs_error", "normalized_error"],
          [[r.d, r.count, r.main.numerator, r.main.denominator,
            repr(float(r.abs_error)), repr(float(r.normalized_error))] for r in rows],
          extras, notes)


def _cmd_equidist(args):
    alpha = CertifiedReal.parse(args.alpha)
    beta = CertifiedReal.parse(args.beta)
    rep = fractional_hits_report(alpha, beta, args.y, _fraction(args.width))
    extras = {"cmd": "equidist", "alpha": args.alpha, "beta": args.beta,
              "y": args.y, "width": args.width}
    _emit(args, ["y", "width_num", "width_den", "count", "expected_num",
                 "expected_den", "conv_q", "bound_ok"],
          [[rep.y, rep.width.numerator, rep.width.denominator, rep.count,
            rep.expected.numerator, rep.expected.denominator, rep.conv_q,
            str(rep.bound_ok).lower()]],
          extras)


def _cmd_sieve(args):
    alpha = CertifiedReal.parse(args.alpha)
    beta = CertifiedReal.parse(args.beta)
    if args.z < 3:
        raise ParameterError("sieve subcommand needs z >= 3")
    bound = selberg_upper_bound(alpha, beta, args.x, args.z)
    g = big_g(args.z)
    pl = product_lower(args.z)
    q = bound.quadratic_form_bound
    verdict = "OK" if (bound.sifted <= q and bound.expanded_bound == q) else "FAIL"
    extras = {"cmd": "sieve", "alpha": args.alpha, "beta": args.beta,
              "x": args.x, "z": args.z}
    _emit(args, ["z", "G_num", "G_den", "product_lower_num", "product_lower_den",
                 "sifted_count", "Q_num", "Q_den"],
          [[args.z, g.numerator, g.denominator, pl.numerator, pl.denominator,
            bound.sifted, q.numerator, q.denominator]],
          extras, [f"verdict: {verdict}"])


def _cmd_farey(args):
    rep = farey_union(args.dprime, args.qmax, _fraction(args.halfwidth))
    extras = {"cmd": "farey", "qmax": args.qmax, "halfwidth": args.halfwidth,
              "dprime": args.dprime}
    _emit(args, ["d_prime", "q_max", "halfwidth_num", "halfwidth_den",
                 "measure_num", "measure_den", "bound_num", "bound_den"],
          [[rep.d_prime, rep.q_max, rep.halfwidth.numerator, rep.halfwidth.denominator,
            rep.measure.numerator, rep.measure.denominator,
            rep.subadditive_bound.numerator, rep.subadditive_bound.denominator]],
          extras)


def build_parser() -> _Parser:
    p = _Parser(prog="beattylab", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--out", default=None, help="write CSV here instead of stdout")
        sp.add_argument("--config", default=None, help=argparse.SUPPRESS)

    sp = sub.add_parser("pairs", help="count primes p <= x with prime companion")
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--beta", default="rat:0/1")
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--list", action="store_true", help="emit the pairs themselves")
    common(sp)
    sp.set_defaults(fn=_cmd_pairs)

    sp = sub.add_parser("scan", help="statistics over sampled and pinned alphas")
    sp.add_argument("--c1", required=True)
    sp.add_argument("--c2", required=True)
    sp.add_argument("--beta", default="rat:0/1")
    sp.add_argument("--x-grid", required=True, help="colon-separated, e.g. 1000:10000")
    sp.add_argument("--samples", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--pin", action="append", default=[])
    sp.add_argument("--svg", default=None, help="also write an SVG polyline plot")
    sp.add_argument("--threads", type=int, default=1)
    common(sp)
    sp.set_defaults(fn=_cmd_scan)

    sp = sub.add_parser("integral", help="exact alpha-integral of the pair count")
    sp.add_argument("--c1", required=True)
    sp.add_argument("--c2", required=True)
    sp.add_argument("--beta", default="rat:0/1")
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--mc-samples", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    common(sp)
    sp.set_defaults(fn=_cmd_integral)

    sp = sub.add_parser("lemma1", help="scaling preimage set, measure, bound check")
    sp.add_argument("--I", required=True, help="c1,c2 with 0 <= c1 < c2 <= 1")
    sp.add_argument("--b", required=True)
    sp.add_argument("--l", required=True)
    common(sp)
    sp.set_defaults(fn=_cmd_lemma1)

    sp = sub.add_parser("lemma2", help="congruence-count deviation table")
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--beta", default="rat:0/1")
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--dmax", type=int, required=True)
    sp.add_argument("--mobius-variant", choices=("paper", "alternative"), default=None)
    common(sp)
    sp.set_defaults(fn=_cmd_lemma2)

    sp = sub.add_parser("equidist", help="fractional-part hit count and bound")
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--beta", default="rat:0/1")
    sp.add_argument("--y", type=int, required=True)
    sp.add_argument("--width", required=True)
    common(sp)
    sp.set_defaults(fn=_cmd_equidist)

    sp = sub.add_parser("sieve", help="Selberg upper bound and sifted count")
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--beta", default="rat:0/1")
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--z", type=int, required=True)
    common(sp)
    sp.set_defaults(fn=_cmd_sieve)

    sp = sub.add_parser("farey", help="union of rational neighborhoods, exact measure")
    sp.add_argument("--qmax", type=int, required=True)
    sp.add_argument("--halfwidth", required=True)
    sp.add_argument("--dprime", type=int, default=1)
    common(sp)
    sp.set_defaults(fn=_cmd_farey)

    return p


def main(argv: list[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(2_000_000)
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        if argv and not argv[0].startswith("-"):
            argv = [argv[0]] + _apply_config(parser, argv[0], argv[1:])
        args = parser.parse_args(argv)
        return args.fn(args) or 0
    except ParameterError as exc:
        print(f"error: parameter: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except BoundaryAmbiguous as exc:
        print(f"error: certification: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except GuardViolation as exc:
        print(f"error: guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except OSError as exc:
        print(f"error: parameter: {exc}", file=sys.stderr)
        return EXIT_PARAMETER


if __name__ == "__main__":
    sys.exit(main())
