"""One driftest CLI invocation, run in-process with spans around module calls.

Usage: python3 perfbench/tracer.py SPANS_JSON ARG...

Times ``import driftest.cli``, then rebinds each traced public function in
every loaded driftest module that holds it, so that a call through any
import path records a span (name, start, end, parent).  Spans stay in
memory and are written to SPANS_JSON when the CLI returns; the process
exits with the CLI's exit code.  Only the standard library is imported
before the timed import, so the import time is what a user pays.
"""

import functools
import importlib
import json
import sys
import time

LAYERS = ("cli", "windows", "adaptive", "dist", "driftgen", "harness")

# Public functions timed per layer; every harness.verify_* entry point is
# added at run time.
TRACED = (
    ("cli", "main"),
    ("windows", "parse_stream_text"),
    ("windows", "build_ladder"),
    ("adaptive", "adaptive_estimate"),
    ("adaptive", "realized_error_curve"),
    ("adaptive", "q_curve"),
    ("adaptive", "drift_sequence"),
    ("dist", "tv_distance"),
    ("driftgen", "sample_stream"),
    ("driftgen", "segments"),
    ("driftgen", "truth_pmfs"),
    ("harness", "run_trials"),
)


class Tracer:
    """Spans and counters of one traced invocation."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.pmf_constructions = 0
        self.scenarios = set()

    def wrap(self, fn, name):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, time.perf_counter(), parent)
                stack.pop()
        return traced

    def wrap_sampler(self, fn):
        """Also collect the distinct scenarios that get sampled."""
        scenarios = self.scenarios

        @functools.wraps(fn)
        def sampled(scenario, *args, **kwargs):
            scenarios.add(repr(scenario))
            return fn(scenario, *args, **kwargs)
        return sampled

    def count_pmfs(self, pmf_class):
        init = pmf_class.__init__

        def counted(obj, *args, **kwargs):
            self.pmf_constructions += 1
            init(obj, *args, **kwargs)
        pmf_class.__init__ = counted


def rebind(original, replacement) -> None:
    """Replace ``original`` in every loaded driftest module that holds it."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "driftest" or mod_name.startswith("driftest."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tracer: Tracer) -> list[str]:
    """Wrap every traced function that exists; return the absent names.

    Every layer is imported here so that its functions can be wrapped; a
    CLI that imports a layer lazily pays that import in traced runs only.
    """
    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"driftest.{layer}")
        except ImportError:
            pass
    targets = list(TRACED)
    if "harness" in modules:
        targets += [("harness", n) for n in sorted(vars(modules["harness"]))
                    if n.startswith("verify_") and callable(getattr(modules["harness"], n))]
    absent = []
    for layer, name in targets:
        fn = getattr(modules.get(layer), name, None)
        if fn is None:
            absent.append(f"{layer}.{name}")
            continue
        wrapped = tracer.wrap(fn, f"{layer}.{name}")
        if (layer, name) == ("driftgen", "sample_stream"):
            wrapped = tracer.wrap_sampler(wrapped)
        rebind(fn, wrapped)
    pmf = getattr(modules.get("dist"), "Pmf", None)
    if pmf is None:
        absent.append("dist.Pmf")
    else:
        tracer.count_pmfs(pmf)
    return absent


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import driftest.cli
    import_s = time.perf_counter() - start

    tracer = Tracer()
    absent = install(tracer)
    # the installed wrapper, not the function bound at import time
    cli_main = driftest.cli.main
    code = None
    try:
        code = cli_main(argv)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({
                "import_s": import_s,
                "exit_code": code,
                "absent": absent,
                "pmf_constructions": tracer.pmf_constructions,
                "scenarios": len(tracer.scenarios),
                "spans": tracer.spans,
            }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
