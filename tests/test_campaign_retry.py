"""RetryPolicy: backoff shape and classification.

The policy's one retry loop is the supervisor's process path;
``tests/test_campaign_supervisor.py`` drives it under a
:class:`repro.campaign.FakeClock`.
"""

import pytest

from repro.campaign import FakeClock, RetryPolicy
from repro.campaign.retry import MAX_DELAY_S
from repro.errors import (
    CampaignError,
    FaultInjectionError,
    SimulationError,
    TaskCrashError,
    TaskTimeoutError,
)


class TestBackoffSequence:
    def test_exponential_without_jitter(self):
        policy = RetryPolicy(base_delay=0.5)
        assert [policy.backoff(k) for k in (1, 2, 3, 4)] == [0.5, 1.0, 2.0, 4.0]

    def test_capped_at_max_delay(self):
        policy = RetryPolicy(base_delay=1.0)
        assert policy.backoff(5) == 16.0
        assert policy.backoff(6) == MAX_DELAY_S == 30.0
        assert policy.backoff(9) == 30.0

    def test_first_try_has_no_delay(self):
        assert RetryPolicy().backoff(0) == 0.0


class TestClassification:
    @pytest.mark.parametrize("exc", [TaskCrashError("x"), TaskTimeoutError("x")])
    def test_default_retryable_kinds(self, exc):
        assert RetryPolicy().is_retryable(exc)

    # an injected-fault parameter error or a simulation error is a pure
    # function of the config and trace: a rerun fails the same way
    @pytest.mark.parametrize("exc", [ValueError("x"), KeyError("x"),
                                     CampaignError("x"),
                                     FaultInjectionError("x"),
                                     SimulationError("x")])
    def test_default_non_retryable_kinds(self, exc):
        assert not RetryPolicy().is_retryable(exc)


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"base_delay": -1.0},
    ])
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(CampaignError):
            RetryPolicy(**kwargs)


class TestFakeClock:
    def test_sleep_advances_without_blocking(self):
        clock = FakeClock(start=10.0)
        clock.sleep(2.5)
        assert clock.monotonic() == 12.5
        assert clock.sleeps == [2.5]
