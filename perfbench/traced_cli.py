"""One traced `metricgeom <cmd>` call: python3 traced_cli.py SPAN_FILE CMD [ARGS...]

Times `import metricgeom`, wraps cli.main, cli.load_curve, cli.dumps and
every library function bound in metricgeom.cli, runs the command, and
writes the spans to SPAN_FILE.  Stdout and the exit code are the command's.
"""

import sys
import time

t0 = time.perf_counter()
import metricgeom.cli as cli  # noqa: E402

t1 = time.perf_counter()

from spans import Tracer  # noqa: E402

CLI_NAMES = ["main", "load_curve", "dumps", "length", "lipschitz_estimate", "solve",
             "fit_holder", "hausdorff_covering_sum", "check_metric_axioms",
             "check_norm_axioms", "check_unit_ball_convexity", "unit_speed_reparam",
             "eval_norm"]


def main() -> int:
    tracer = Tracer()
    tracer.add("cli.import", t0, t1)
    for name in CLI_NAMES:
        module = getattr(cli, name).__module__.rsplit(".", 1)[-1]
        tracer.wrap(cli, name, f"{module}.{name}")
    try:
        return cli.main(sys.argv[2:])
    finally:
        sys.stdout.flush()
        tracer.dump(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
