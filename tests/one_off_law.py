"""A one-off law for tests: a single law run through the harness's one
sampling loop, keyed by its own name."""

from modlam.harness import _sweep


def sampled_law(name, samples, seed, gen, sides, inputs, show, probes=()):
    """Run one law: gen draws an input tuple, sides returns the two values
    the law equates, inputs and show render a failure.  Fuel exhaustion
    in gen or sides is a skip, as in the stock suites."""
    return _sweep(name, samples, seed, gen, [(name, sides, inputs)], show, probes)[0]
