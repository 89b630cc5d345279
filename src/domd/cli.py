"""Command line front end.

Exit codes: 0 on success, 1 on configuration or usage errors and on a failed run
(one `run error: ...` line naming the round, replicate and agent; a sweep names the
replicate by its swept value and run index), 2 when a guarantee check fails, with
one VIOLATION line on stderr per failed check, and 141 (the status of a process
killed by SIGPIPE) when stdout is closed before the summary is printed, as in
`domd run ... | head -1`; the outputs are written by then.  `run` checks an
exact-gradient run's three guarantees (harness.check_rows); regret >= 0 is checked
by `verify-bounds` only, since a correct run on linear losses may break it.
`run` prints the guarantee total of its gradient mode (G^2 if stochastic, L^2 if exact).
--out is created before any work, so an unusable path fails first; a config or run
error removes it again if made and still empty.  The library refuses every option's
value (--seed as experiment.seed), each as a config error.
"""

import argparse
import math
import os
import sys
from dataclasses import replace

from .config import ConfigError, describe_schema, load_config
from .engine import EngineError
from .harness import check_rows, run_experiment, show_value, sweep, verify_bounds

BROKEN_PIPE = 141


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; keep 2 reserved for
    # bound violations and treat bad usage as a config error instead
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(p):
    p.add_argument("--config", required=True, metavar="FILE",
                   help="experiment description (INI)")
    p.add_argument("--seed", type=int, default=None, help="override the master seed")
    p.add_argument("--out", required=True, metavar="DIR",
                   help="directory for the CSV outputs")


def build_parser():
    parser = _Parser(prog="domd",
                     description="decentralized online mirror descent experiments")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    run_p = sub.add_parser("run", help="execute one experiment",
                           epilog="config schema:\n" + describe_schema(),
                           formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_common(run_p)
    run_p.add_argument("--run-index", type=int, default=0,
                       help="replicate index (varies the derived random streams)")

    sweep_p = sub.add_parser("sweep",
                             help="replicate runs across values of one numeric key")
    _add_common(sweep_p)
    sweep_p.add_argument("--param", required=True,
                         help="config key to vary, e.g. noise.sigma_v2")
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated numeric values")
    sweep_p.add_argument("--runs", type=int, default=None,
                         help="replicates per value (default: experiment.runs)")

    verify_p = sub.add_parser("verify-bounds",
                              help="check every guarantee on the synthetic suite")
    verify_p.add_argument("--seeds", type=int, default=20,
                          help="seeded configurations per suite case")
    verify_p.add_argument("--out", required=True, metavar="DIR")
    verify_p.add_argument("--l-scale", type=float, default=1.0,
                          help="rescale the declared gradient bound "
                               "(0.5 is the negative control)")
    return parser


def _load(args):
    cfg = load_config(args.config)
    return cfg if args.seed is None else replace(cfg, seed=args.seed)


def _violations(rows, notes=()):
    """Print a VIOLATION line, with any `not a guarantee` note, per failed row; return how many."""
    failed = [row for row in rows if not row.passed]
    why = "".join(f" ({note})" for note in notes if note.startswith("not a guarantee"))
    for row in failed:
        print(f"VIOLATION {row.case} seed={row.seed} {row.check}: "
              f"empirical={row.empirical:.6g} bound={row.bound:.6g}{why}", file=sys.stderr)
    return len(failed)


def _cmd_run(args):
    cfg = _load(args)
    result = run_experiment(cfg, run_index=args.run_index, out_dir=args.out)
    print(f"dynamic_regret={result.regret.dynamic_regret:.6g}")
    print(f"normalized_final={result.regret.normalized[-1]:.6g}")
    print(f"sigma2={result.sigma2:.6g}")
    bounds = result.bounds
    total = bounds.stochastic_total if cfg.gradient_mode == "stochastic" else bounds.total
    print(f"guarantee_total={total:.6g} mode={cfg.gradient_mode}")
    return 2 if _violations(check_rows(result, "run", cfg.seed), bounds.notes) else 0


def _number(text):
    """A digit string in the float range as an exact int (a seed above 2**53
    runs as itself), any other number as a float."""
    value = float(text)
    return int(text) if text.strip().isdecimal() and math.isfinite(value) else value


def _cmd_sweep(args):
    cfg = _load(args)
    try:
        values = tuple(map(_number, args.values.split(",")))
    except ValueError:
        raise ConfigError(f"--values must be comma-separated numbers, got {args.values!r}")
    result = sweep(cfg, args.param, values, runs=args.runs, out_dir=args.out)
    for k, value in enumerate(result.values):
        print(f"{args.param}={show_value(value)}: final_normalized="
              f"{result.final_mean[k]:.6g} (+/- {result.final_std[k]:.6g})")
    return 0


def _cmd_verify(args):
    report = verify_bounds(args.seeds, out_dir=args.out, l_scale=args.l_scale)
    print(f"checks={len(report.rows)} seeds={report.seeds} violations={_violations(report.rows)}")
    return 0 if report.passed else 2


def _values_joined(argv):
    """argv with `--values LIST` as `--values=LIST` unless LIST is an option, so
    a list that starts with a minus sign (-1e5, -inf,1) is not read as one."""
    argv = list(sys.argv[1:] if argv is None else argv)
    for k in range(len(argv) - 2, -1, -1):
        if argv[k] == "--values" and not argv[k + 1].startswith(("--", "-h")):
            argv[k:k + 2] = [f"--values={argv[k + 1]}"]
    return argv


def main(argv=None):
    args = build_parser().parse_args(_values_joined(argv))
    handlers = {"run": _cmd_run, "sweep": _cmd_sweep, "verify-bounds": _cmd_verify}
    made = not os.path.isdir(args.out)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create --out {args.out}: {exc.strerror}", file=sys.stderr)
        return 1
    try:
        code = handlers[args.command](args)
        print(f"outputs written to {args.out}")
        sys.stdout.flush()
    except (ConfigError, EngineError) as exc:
        if made and not os.listdir(args.out):
            os.rmdir(args.out)
        kind = "config" if isinstance(exc, ConfigError) else "run"
        print(f"{kind} error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # what is left in stdout's buffer goes to devnull, so that the flush
        # at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
