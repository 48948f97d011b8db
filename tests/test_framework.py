from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from convlab.framework import (
    ConvergenceRecord,
    MethodSpec,
    ModeReport,
    OracleContradiction,
    Status,
    StreamTrace,
    Verdict,
    check_stability,
    classify_convergence,
    empirical_settle_stage,
)
from convlab import lineworld as lw
from convlab import perrin as pr

S, C, Q = Verdict.SIMPLE, Verdict.COMPLEX, Verdict.SUSPEND


def make_trace(verdicts, world_id="w"):
    return StreamTrace(world_id, (None,) * len(verdicts), tuple(verdicts))


class TestClassifyConvergence:
    def test_settled_from_start_with_oracle(self):
        trace = make_trace([S] * 10)
        record = classify_convergence(trace, S, 0)
        assert record.status is Status.CONVERGES
        assert record.settle_stage == 0

    def test_oracle_diverges_overrides_suffix(self):
        trace = make_trace([Q] * 6)
        record = classify_convergence(trace, S, -1)
        assert record.status is Status.DIVERGES

    def test_near_diagonal_world_undetermined_at_short_horizon(self):
        # evidence cannot yet separate a from b: every verdict is SIMPLE,
        # the truth is COMPLEX, and no oracle is supplied
        w = pr.plane_world(1.0, 1.0 + 2.0**-50)
        spec = lw.StreamSpec(delta0=1.0, ratio=0.6)
        assert 2.0 * spec.half_width(19) > abs(w.na - w.na_prime)
        trace = pr.trace(pr.ockham_method(), w, spec, 20)
        assert all(v is S for v in trace.verdicts)
        record = classify_convergence(trace, w.truth, None)
        assert record.status is Status.UNDETERMINED

    def test_no_oracle_never_definite(self):
        record = classify_convergence(make_trace([C] * 4), C, None)
        assert record.status is Status.UNDETERMINED

    def test_settle_beyond_horizon_undetermined(self):
        trace = make_trace([S, S, S])
        assert classify_convergence(trace, S, 10).status is Status.UNDETERMINED

    def test_contradiction_detected(self):
        trace = make_trace([C, C, C, C])
        with pytest.raises(OracleContradiction):
            classify_convergence(trace, S, 1)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            classify_convergence(StreamTrace("w", (), ()), S, None)

    @given(st.lists(st.sampled_from([S, C, Q]), min_size=1, max_size=12), st.sampled_from([S, C]),
           st.data())
    def test_record_matches_reference(self, verdicts, truth, data):
        # the stage-or--1 certificate read back against a few-line reference
        settle_by = data.draw(st.none() | st.integers(-1, len(verdicts) + 2))
        trace = make_trace(verdicts, "w7")
        suffix = len(verdicts)  # the first stage of the truth-suffix
        while suffix and verdicts[suffix - 1] is truth:
            suffix -= 1
        first = verdicts.index(truth) if truth in verdicts else len(verdicts)
        stable = all(v is truth for v in verdicts[first:])
        if settle_by is None or settle_by >= len(verdicts):
            expected = (Status.UNDETERMINED, None)
        elif settle_by == -1:
            expected = (Status.DIVERGES, None)
        elif suffix > settle_by:
            message = (f"world w7: oracle guarantees truth from stage {settle_by} "
                       "but the trace shows otherwise")
            with pytest.raises(OracleContradiction, match=f"^{message}$"):
                classify_convergence(trace, truth, settle_by)
            return
        else:
            expected = (Status.CONVERGES, suffix)
        assert classify_convergence(trace, truth, settle_by) == ConvergenceRecord(
            "w7", *expected, stable)


class TestSettleStage:
    def test_basic(self):
        assert empirical_settle_stage([C, S, S], S) == 1
        assert empirical_settle_stage([S, S, S], S) == 0
        assert empirical_settle_stage([S, C], S) is None
        assert empirical_settle_stage([], S) is None


class TestStability:
    def test_all_suspend_vacuously_stable(self):
        assert check_stability(make_trace([Q, Q, Q]), S) == (True, None)

    def test_retraction_detected_with_adjacent_witness(self):
        passed, witness = check_stability(make_trace([S, S, C]), S)
        assert not passed
        assert witness == (1, 2)

    def test_false_answer_may_be_retracted(self):
        assert check_stability(make_trace([S, C, C]), C)[0]

    def test_suspension_after_truth_counts_as_retraction(self):
        passed, witness = check_stability(make_trace([S, Q]), S)
        assert not passed and witness == (0, 1)

    @given(st.lists(st.sampled_from([S, C, Q]), min_size=1, max_size=12),
           st.lists(st.sampled_from([S, C, Q]), min_size=0, max_size=6),
           st.sampled_from([S, C]))
    def test_monotone_under_extension(self, verdicts, extra, truth):
        base_ok, _ = check_stability(make_trace(verdicts), truth)
        ext_ok, _ = check_stability(make_trace(verdicts + extra), truth)
        if not base_ok:
            assert not ext_ok

    def test_converges_implies_stable_suffix(self):
        # records produced by the interval sweep honor the framework contract
        spec = lw.StreamSpec(delta0=1.0, ratio=0.7)
        mstar = lw.mstar_method()
        for theta in (0.0, 0.05, -0.3, 1.0):
            trace = lw.trace(mstar, theta, spec, 40)
            record = classify_convergence(trace, lw.truth(theta), mstar.oracle(theta, spec))
            assert record.status is Status.CONVERGES
            s = record.settle_stage
            suffix = StreamTrace(trace.world_id, trace.evidence[s:], trace.verdicts[s:])
            assert check_stability(suffix, lw.truth(theta))[0]


class TestStreamTrace:
    def test_evidence_and_verdicts_are_two_columns(self):
        trace = StreamTrace("w", ("e0", "e1", "e2"), (S, C, Q))
        assert [f.name for f in fields(StreamTrace)] == ["world_id", "evidence", "verdicts"]
        assert trace.verdicts == (S, C, Q) and len(trace) == 3
        assert trace == StreamTrace("w", ("e0", "e1", "e2"), (S, C, Q))
        assert hash(trace) == hash(StreamTrace("w", ("e0", "e1", "e2"), (S, C, Q)))


class TestModeReport:
    def test_failing_report_needs_witnesses(self):
        with pytest.raises(ValueError):
            ModeReport("POINTWISE", False, ())

    def test_witnesses_optional_on_pass(self):
        assert ModeReport("POINTWISE", True).passed
