"""End-to-end integration: the pipeline over random zone configurations.

Mirrors the paper's operating mode (section 6.5): each run of the overall
verification proves correctness and safety of the engine deployed on a
concrete zone snapshot. The verified engine must prove out on every random
zone; buggy versions must be caught whenever the zone exercises their bug
class (which the differential tester independently confirms).
"""

import pytest

from repro.core import verify_engine
from repro.testing import differential_test
from repro.zonegen import GeneratorConfig, ZoneGenerator


def make_zones(count=3):
    generator = ZoneGenerator(
        GeneratorConfig(
            seed=77, num_hosts=4, num_wildcards=1, num_delegations=1,
            num_cnames=1, num_mx=1,
        )
    )
    return list(generator.stream(count))


class TestVerifiedOnRandomZones:
    @pytest.mark.parametrize("index", range(3))
    def test_verified_proves_out(self, index):
        zone = make_zones(3)[index]
        result = verify_engine(zone, "verified")
        assert result.verified, result.describe()


class TestSymbolicMatchesDifferential:
    """On every (zone, version) pair the verifier and the differential
    tester must agree on whether the version is buggy — the verifier just
    proves it instead of sampling."""

    @pytest.mark.parametrize("version", ["v1.0", "v3.0", "dev"])
    def test_agreement(self, version):
        zone = make_zones(1)[0]
        diff = differential_test(zone, version)
        verif = verify_engine(zone, version)
        if not diff.clean:
            assert not verif.verified, (
                f"differential found divergences but verification passed: "
                f"{diff.describe()}"
            )
        if verif.verified:
            assert diff.clean


class TestSafetyAcrossZones:
    def test_dev_crash_found_when_ent_present(self):
        # The dev crash needs an empty non-terminal; the evaluation zone
        # has one, so safety must fail there.
        from repro.core import RUNTIME_ERROR
        from repro.zonegen import evaluation_zone

        result = verify_engine(evaluation_zone(), "dev")
        assert RUNTIME_ERROR in result.bug_categories()

    def test_verified_safe_everywhere(self):
        for zone in make_zones(2):
            result = verify_engine(zone, "verified")
            # VERIFIED requires zero mismatches of any kind, so no reachable
            # panic ("code-panic") survives in any unit.
            assert result.verdict == "VERIFIED"
