"""Unit tests for the RL8xx shape/dtype/RNG-budget analysis.

Exercises the dimension-polynomial algebra and the
:func:`budget_under_declared` comparison directly, then drives
:func:`analyze_program` over small in-memory kernels to check the
findings and the converged :class:`ShapeSummary` records exposed
through :class:`ProgramAnalysis`.
"""

import textwrap

from repro.lint.dataflow.program import analyze_program
from repro.lint.dataflow.shapes import (
    budget_under_declared,
    format_poly,
    format_shape,
    poly_add,
    poly_as_const,
    poly_as_symbol,
    poly_const,
    poly_mul,
    poly_sym,
)

PATH = "repro/core/example.py"

PREAMBLE = "import numpy as np\n"


def _analyze(source, path=PATH):
    return analyze_program([(path, PREAMBLE + textwrap.dedent(source))])


def _codes(program, path=PATH):
    return [(f.line, f.code) for f in program.findings_for(path)]


def _kernel(body, extra=""):
    """A minimal AcceptKernel-shaped class around one accept_block body."""
    return (
        "class Kernel:\n"
        "    @property\n"
        "    def cache_token(self):\n"
        "        return {'kind': 'example'}\n"
        + textwrap.indent(textwrap.dedent(extra), "    ")
        + "    def accept_block(self, distribution, trials, rng):\n"
        + textwrap.indent(textwrap.dedent(body), "        ")
    )


# --------------------------------------------------------------------- #
# polynomial algebra                                                    #
# --------------------------------------------------------------------- #


def test_poly_add_and_mul_normalise():
    n, k = poly_sym("n"), poly_sym("k")
    total = poly_add(poly_mul(n, k), poly_mul(k, n))
    assert format_poly(total) == "2*k*n"
    assert poly_add(total, poly_mul(total, poly_const(-1))) == ()


def test_poly_constants_and_symbols():
    assert poly_as_const(poly_const(7)) == 7
    assert poly_as_const(poly_sym("n")) is None
    assert poly_as_symbol(poly_sym("self.k")) == "self.k"
    assert poly_as_symbol(poly_mul(poly_sym("n"), poly_const(2))) is None
    assert poly_add(None, poly_const(1)) is None
    assert poly_mul(None, poly_const(1)) is None


def test_format_shape_marks_unknowns():
    assert format_shape(None) == "(?)"
    assert format_shape((poly_sym("trials"),)) == "(trials,)"
    assert format_shape((poly_sym("trials"), None)) == "(trials, ?)"


# --------------------------------------------------------------------- #
# budget comparison (the RL803 decision procedure)                      #
# --------------------------------------------------------------------- #


def _times_trials(poly):
    return poly_mul(poly, poly_sym("trials"))


def test_under_declared_exact_cover_is_clean():
    consumed = _times_trials(poly_add(poly_sym("self.k"), poly_const(1)))
    declared = _times_trials(poly_add(poly_sym("self.k"), poly_const(1)))
    assert budget_under_declared(consumed, declared) is None


def test_under_declared_missing_term_fires():
    consumed = _times_trials(poly_add(poly_sym("self.k"), poly_const(1)))
    declared = _times_trials(poly_sym("self.k"))
    assert budget_under_declared(consumed, declared) == "trials"


def test_under_declared_symbolic_surplus_blocks():
    # Declared k*trials vs consumed g*m*trials: k could dominate, so no
    # verdict — the PairwiseHashTester pattern.
    consumed = _times_trials(
        poly_mul(poly_sym("self.groups"), poly_sym("self.group_size"))
    )
    declared = _times_trials(poly_sym("self.k"))
    assert budget_under_declared(consumed, declared) is None


def test_under_declared_constant_surplus_covers_constants_only():
    declared = poly_add(_times_trials(poly_sym("self.k")), poly_const(8))
    constant_leftover = poly_add(
        _times_trials(poly_sym("self.k")), poly_const(3)
    )
    assert budget_under_declared(constant_leftover, declared) is None
    symbolic_leftover = poly_add(
        _times_trials(poly_sym("self.k")), poly_sym("self.n")
    )
    assert budget_under_declared(symbolic_leftover, declared) == "self.n"


# --------------------------------------------------------------------- #
# RL801: return shape/dtype                                             #
# --------------------------------------------------------------------- #


def test_rl801_scalar_collapse_fires():
    program = _analyze(
        _kernel(
            """
            samples = distribution.sample_matrix(trials, 8, rng)
            return (samples < 4).all()
            """
        )
    )
    assert ("RL801" in {code for _, code in _codes(program)})


def test_rl801_matrix_return_fires():
    program = _analyze(
        _kernel(
            """
            draws = rng.random((trials, 6))
            return draws < 0.5
            """
        )
    )
    assert [code for _, code in _codes(program)] == ["RL801"]


def test_rl801_integer_vector_fires():
    program = _analyze(
        _kernel(
            """
            samples = distribution.sample_matrix(trials, 8, rng)
            return (samples == 0).sum(axis=1)
            """
        )
    )
    assert [code for _, code in _codes(program)] == ["RL801"]


def test_rl801_sound_kernel_is_clean():
    program = _analyze(
        _kernel(
            """
            samples = distribution.sample_matrix(trials, 8, rng)
            return (samples == 0).any(axis=1)
            """
        )
    )
    assert _codes(program) == []


def _helper_kernel(helper_body):
    """A kernel whose accept_block reduces a trial-major helper block."""
    return _kernel(
        """
        bits = self.bits_block(distribution, trials, rng)
        return bits.all(axis=1)
        """,
        extra="def bits_block(self, distribution, trials, rng):\n"
        + textwrap.indent(textwrap.dedent(helper_body), "    "),
    )


def test_rl801_trial_major_helper_block_is_clean():
    program = _analyze(
        _helper_kernel(
            """
            samples = distribution.sample_matrix(trials * 6, 4, rng)
            return (samples < 2).all(axis=1).reshape(trials, 6)
            """
        )
    )
    assert _codes(program) == []


def test_rl801_helper_block_must_stay_trial_major():
    transposed = _analyze(
        _helper_kernel(
            """
            draws = rng.random((6, trials))
            return draws < 0.5
            """
        )
    )
    messages = [f.message for f in transposed.findings_for(PATH) if f.code == "RL801"]
    assert any("not trial-major" in message for message in messages)
    collapsed = _analyze(
        _helper_kernel(
            """
            draws = rng.random((trials, 6))
            return (draws < 0.5).sum()
            """
        )
    )
    assert [code for _, code in _codes(collapsed)] == ["RL801"]


def test_rl801_unknown_shape_degrades_silently():
    program = _analyze(
        _kernel(
            """
            scores = self.helper(distribution, trials, rng)
            return scores > 0
            """
        )
    )
    assert _codes(program) == []


def test_rl801_ignores_blocks_outside_kernel_classes():
    program = _analyze(
        """
        def summarise_block(values, trials):
            return values.mean()
        """
    )
    assert _codes(program) == []


# --------------------------------------------------------------------- #
# RL802: platform/value-dependent dtype                                 #
# --------------------------------------------------------------------- #


def test_rl802_platform_int_attribute_fires_once():
    program = _analyze(
        _kernel(
            """
            samples = distribution.sample_matrix(trials, 8, rng)
            counts = samples.astype(np.int_)
            return (counts == 0).any(axis=1)
            """
        )
    )
    assert [code for _, code in _codes(program)] == ["RL802"]


def test_rl802_bare_int_astype_fires():
    program = _analyze(
        _kernel(
            """
            samples = distribution.sample_matrix(trials, 8, rng)
            counts = samples.astype(int)
            return (counts == 0).any(axis=1)
            """
        )
    )
    assert [code for _, code in _codes(program)] == ["RL802"]


def test_rl802_float_equality_fires():
    program = _analyze(
        _kernel(
            """
            uniforms = rng.random((trials, 8))
            return (uniforms == 0.5).any(axis=1)
            """
        )
    )
    assert [code for _, code in _codes(program)] == ["RL802"]


def test_rl802_explicit_int64_is_clean():
    program = _analyze(
        _kernel(
            """
            samples = distribution.sample_matrix(trials, 8, rng)
            counts = samples.astype(np.int64)
            return (counts == 0).any(axis=1)
            """
        )
    )
    assert _codes(program) == []


def test_rl802_outside_kernel_scope_is_clean():
    program = _analyze(
        """
        def tabulate(values):
            return values.astype(np.int_)
        """
    )
    assert _codes(program) == []


# --------------------------------------------------------------------- #
# RL803: declared elements_per_trial vs inferred consumption            #
# --------------------------------------------------------------------- #

UNDER_DECLARED = """
class Kernel:
    def __init__(self, width):
        self.width = width

    @property
    def cache_token(self):
        return {'width': self.width}

    @property
    def elements_per_trial(self):
        return self.width

    def accept_block(self, distribution, trials, rng):
        samples = distribution.sample_matrix(trials, self.width, rng)
        thresholds = rng.random(trials)
        return samples.mean(axis=1) < thresholds
"""


def test_rl803_under_declaration_fires_at_declaration():
    program = _analyze(UNDER_DECLARED)
    codes = _codes(program)
    assert [code for _, code in codes] == ["RL803"]
    line = codes[0][0]
    source = (PREAMBLE + textwrap.dedent(UNDER_DECLARED)).splitlines()
    assert "def elements_per_trial" in source[line - 1]


def test_rl803_exact_declaration_is_clean():
    program = _analyze(
        UNDER_DECLARED.replace(
            "return self.width\n", "return self.width + 1\n"
        )
    )
    assert _codes(program) == []


def test_rl803_loop_draw_degrades_budget():
    program = _analyze(
        UNDER_DECLARED.replace(
            "        thresholds = rng.random(trials)\n",
            "        for player in self.players:\n"
            "            thresholds = rng.random(trials)\n",
        )
    )
    assert _codes(program) == []


def test_rl803_helper_consumption_counts_through_summary():
    # The per-trial dithering draw hides in a helper; the summary's
    # consumption propagates to the accept_block call site.
    program = _analyze(
        """
        class Kernel:
            def __init__(self, width):
                self.width = width

            @property
            def cache_token(self):
                return {'width': self.width}

            @property
            def elements_per_trial(self):
                return self.width

            def accept_block(self, distribution, trials, rng):
                samples = distribution.sample_matrix(trials, self.width, rng)
                thresholds = self.thresholds_for(trials, rng)
                return samples.mean(axis=1) < thresholds

            def thresholds_for(self, trials, rng):
                return rng.random(trials)
        """
    )
    assert [code for _, code in _codes(program)] == ["RL803"]


# --------------------------------------------------------------------- #
# RL804: provably incompatible broadcasts                               #
# --------------------------------------------------------------------- #


def test_rl804_concrete_mismatch_fires():
    program = _analyze(
        _kernel(
            """
            left = rng.random((trials, 3))
            right = rng.random((trials, 4))
            gap = left - right
            return gap.any(axis=1)
            """
        )
    )
    assert [code for _, code in _codes(program)] == ["RL804"]


def test_rl804_scalar_and_unit_broadcasts_are_clean():
    program = _analyze(
        _kernel(
            """
            samples = distribution.sample_matrix(trials, 5, rng)
            offsets = np.arange(trials, dtype=np.int64)[:, np.newaxis]
            return ((samples + offsets) * 2 > 0).all(axis=1)
            """
        )
    )
    assert _codes(program) == []


def test_rl804_symbolic_dims_degrade_silently():
    program = _analyze(
        _kernel(
            """
            left = rng.random((trials, self.a))
            right = rng.random((trials, self.b))
            return (left - right).any(axis=1)
            """
        )
    )
    assert _codes(program) == []


# --------------------------------------------------------------------- #
# summaries surfaced through ProgramAnalysis                            #
# --------------------------------------------------------------------- #


def test_shape_summaries_record_helper_shapes():
    program = _analyze(
        """
        def statistics(distribution, trials, q, rng):
            samples = distribution.sample_matrix(trials, q, rng)
            return samples.sum(axis=1)
        """
    )
    summary = program.shape_summaries["repro.core.example.statistics"]
    assert summary.params == ("distribution", "trials", "q", "rng")
    assert format_shape(summary.returns.shape) == "(trials,)"
    assert summary.returns.dtype == "int64"
    assert format_poly(summary.consumption) == "q*trials"


def test_shape_summaries_survive_worker_strip_roundtrip():
    import pickle

    program = _analyze(UNDER_DECLARED)
    clone = pickle.loads(pickle.dumps(program))
    assert clone.findings_for(PATH) == program.findings_for(PATH)
