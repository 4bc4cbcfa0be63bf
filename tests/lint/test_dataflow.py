"""Cross-module dataflow analysis: resolver, summaries, detectors.

The golden fixtures pin single-file behaviour; these tests exercise the
whole-program machinery — re-export chasing, inter-procedural summary
propagation, kernel detection, and the picklability contract the
``--jobs N`` runner relies on.
"""

import pickle

from repro.lint.dataflow import (
    BUILTIN_SUMMARIES,
    ProgramAnalysis,
    analyze_program,
)
from repro.lint.dataflow.modules import ModuleGraph

HELPER = """\
import numpy as np

def make_stream(seed):
    return np.random.default_rng(seed)
"""

DRIVER = """\
from repro.alpha.helper import make_stream

def fan_out(engine, seed, n_tasks):
    rng = make_stream(seed)
    tasks = [(rng, index) for index in range(n_tasks)]
    return engine.map_tasks(kernel, tasks)

def kernel(task):
    return task
"""

REEXPORT_INIT = "from repro.beta.impl import tainted_listing\n"

REEXPORT_IMPL = """\
import os

def tainted_listing(root):
    return os.listdir(root)
"""

REEXPORT_USE = """\
from repro.beta import tainted_listing

def digest(root):
    return "|".join(tainted_listing(root))
"""

MUTUAL = """\
def ping(rng, depth):
    if depth == 0:
        return rng
    return pong(rng, depth - 1)

def pong(rng, depth):
    return ping(rng, depth)
"""

MUTUAL_RESOURCES = """\
def drain(handle, depth):
    if depth == 0:
        handle.close()
        return None
    return relay(handle, depth - 1)

def relay(handle, depth):
    return drain(handle, depth)

def ping_block(trials, depth, rng):
    if depth == 0:
        return rng.random(trials) < 0.5
    return pong_block(trials, depth - 1, rng)

def pong_block(trials, depth, rng):
    return ping_block(trials, depth, rng)
"""

KERNEL_MODULE = """\
from repro.rng import ensure_rng

def run(engine, tasks):
    return engine.map_tasks(noisy, tasks)

def noisy(task):
    rng = ensure_rng(None)
    return rng.standard_normal()
"""


def _analyze(files):
    return analyze_program(list(files.items()))


def test_summary_propagates_stream_across_modules():
    """A stream built in one module is tracked into another's dispatch."""
    analysis = _analyze(
        {"repro/alpha/helper.py": HELPER, "repro/alpha/driver.py": DRIVER}
    )
    codes = [f.code for f in analysis.findings_for("repro/alpha/driver.py")]
    assert codes == ["RL601"]
    assert analysis.findings_for("repro/alpha/helper.py") == ()


def test_summary_recorded_for_helper():
    analysis = _analyze(
        {"repro/alpha/helper.py": HELPER, "repro/alpha/driver.py": DRIVER}
    )
    summary = analysis.summaries["repro.alpha.helper.make_stream"]
    assert summary.return_tags  # the returned generator is tracked


def test_reexport_chain_is_chased():
    """``from repro.beta import name`` resolves through ``__init__``."""
    files = {
        "repro/beta/__init__.py": REEXPORT_INIT,
        "repro/beta/impl.py": REEXPORT_IMPL,
        "repro/beta/use.py": REEXPORT_USE,
    }
    graph = ModuleGraph(list(files.items()))
    resolved = graph.resolve_function("repro.beta.tainted_listing")
    assert resolved is not None
    assert resolved[0] == "repro.beta.impl.tainted_listing"

    analysis = _analyze(files)
    codes = [f.code for f in analysis.findings_for("repro/beta/use.py")]
    assert codes == ["RL603"]


def test_mutual_recursion_converges():
    analysis = _analyze({"repro/gamma/mutual.py": MUTUAL})
    assert "repro.gamma.mutual.ping" in analysis.summaries
    assert "repro.gamma.mutual.pong" in analysis.summaries
    # rng flows through the cycle into both summaries' passthrough sets.
    assert "rng" in analysis.summaries["repro.gamma.mutual.ping"].passthrough

    analysis = _analyze({"repro/gamma/cycle.py": MUTUAL_RESOURCES})
    resources = analysis.resource_summaries
    shapes = analysis.shape_summaries
    # RL7xx: drain's close reaches relay through the cycle.
    assert "handle" in resources["repro.gamma.cycle.drain"].closes
    assert "handle" in resources["repro.gamma.cycle.relay"].closes
    # RL8xx: a draw-free cycle keeps a known zero budget; forwarding the
    # generator around a cycle degrades both budgets to unknown.
    assert shapes["repro.gamma.cycle.drain"].consumption == ()
    assert shapes["repro.gamma.cycle.relay"].consumption == ()
    assert shapes["repro.gamma.cycle.ping_block"].consumption is None
    assert shapes["repro.gamma.cycle.pong_block"].consumption is None
    assert shapes["repro.gamma.cycle.pong_block"].params == (
        "trials",
        "depth",
        "rng",
    )
    assert analysis.findings == {}


def test_kernel_detection_and_rl604():
    analysis = _analyze({"repro/delta/kern.py": KERNEL_MODULE})
    assert analysis.kernels == ("repro.delta.kern.noisy",)
    codes = [f.code for f in analysis.findings_for("repro/delta/kern.py")]
    assert codes == ["RL604"]


def test_program_analysis_pickles_unchanged():
    """The --jobs runner ships the analysis to workers via pickle."""
    analysis = _analyze(
        {"repro/alpha/helper.py": HELPER, "repro/alpha/driver.py": DRIVER}
    )
    clone = pickle.loads(pickle.dumps(analysis))
    assert isinstance(clone, ProgramAnalysis)
    assert clone.findings == analysis.findings
    assert clone.kernels == analysis.kernels


def test_builtin_summaries_win_over_computed():
    """Hand-written engine models take precedence over analysed bodies."""
    assert BUILTIN_SUMMARIES  # the table is populated
    # A file that *redefines* a modelled name still gets the model.
    source = "def derive_root_entropy(rng):\n    return rng\n"
    analysis = _analyze({"repro/engine/seeding.py": source})
    assert analysis.findings == {}


def test_unparsable_file_is_skipped_not_fatal():
    analysis = _analyze(
        {"repro/alpha/broken.py": "def broken(:\n", "repro/alpha/helper.py": HELPER}
    )
    assert "repro/alpha/broken.py" not in analysis.findings
    assert "repro.alpha.helper.make_stream" in analysis.summaries
