"""Property test: static counts == analytic model for randomized shapes.

The registry pins three sizes; here hypothesis draws arbitrary small
``(kind, m, n)`` shapes and requires the abstract interpreter's charge
totals to equal :func:`repro.model.per_block_counts` term for term, and
every kernel's claimed FLOPs to equal the paper-convention count from
:mod:`repro.model.flops`.  Any kernel/model drift at *any* shape -- not
just the swept ones -- fails here first.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyze.costcheck import CostCase, interpret
from repro.analyze.costcheck.checks import analytic_flops, model_terms
from repro.kernels.device import KERNELS
from repro.model.flops import lu_flops, matrix_bytes, qr_flops

PER_BLOCK = st.sampled_from([k for k in KERNELS if k.family == "per_block"])
PER_THREAD = st.sampled_from([k for k in KERNELS if k.family == "per_thread"])


def _build_case(info, m, n, base_seed):
    """A certifier case running ``info``'s kernel on ``m x n`` samples."""

    def run(batch, seed):
        return info.call(*info.generate(m, n, seed, batch))

    return CostCase(
        name=f"prop_{info.name}", op=info.op, family=info.family,
        m=m, n=n, seed=base_seed, run=run,
    )


@settings(max_examples=20, deadline=None)
@given(info=PER_BLOCK, n=st.integers(2, 9), extra=st.integers(0, 4))
def test_interpreted_counts_equal_analytic_counts(info, n, extra):
    m = n + extra if info.tall else n
    case = _build_case(info, m, n, 1234)
    fp = interpret(case).footprint
    expected = model_terms(case)
    assert fp.terms() == expected, {
        term: (fp.terms()[term], expected[term])
        for term in expected
        if fp.terms()[term] != expected[term]
    }


@settings(max_examples=15, deadline=None)
@given(info=PER_THREAD, n=st.integers(2, 10))
def test_per_thread_claims_match_the_paper_conventions(info, n):
    fp = interpret(_build_case(info, n, n, 99)).footprint
    expected = qr_flops(n, n) if info.op == "qr" else lu_flops(n)
    assert fp.flops_per_problem == expected
    # DRAM traffic is read + write of the matrix, plus spill re-touches
    assert fp.global_bytes - fp.spill_bytes == 2 * matrix_bytes(n, n)


@settings(max_examples=20, deadline=None)
@given(info=PER_BLOCK, n=st.integers(2, 9), extra=st.integers(0, 4))
def test_kernel_claimed_flops_equal_model_flops(info, n, extra):
    m = n + extra if info.tall else n
    fp = interpret(_build_case(info, m, n, 1234)).footprint
    assert fp.flops_per_problem == analytic_flops(info.op, m, n)
