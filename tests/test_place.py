"""Tests for the placement layer: the seed-stable draw, the online
policies (first-fit-decreasing and spread) and refusal semantics."""

import pytest

from repro.place import PlacementError, PlacementPolicy, placement_draw


class TestPlacementDraw:
    def test_in_range_and_stable(self):
        for count in (1, 2, 7):
            first = placement_draw(1999, "domain", count)
            assert 0 <= first < count
            assert placement_draw(1999, "domain", count) == first

    def test_varies_by_name_and_seed(self):
        draws = {placement_draw(1999, "d%d" % index, 1000)
                 for index in range(32)}
        assert len(draws) > 1
        assert (placement_draw(1, "domain", 1000)
                != placement_draw(2, "domain", 1000)
                or placement_draw(1, "other", 1000)
                != placement_draw(2, "other", 1000))

    def test_empty_candidate_set_rejected(self):
        with pytest.raises(ValueError):
            placement_draw(1999, "domain", 0)


class TestPlacementPolicy:
    def test_ffd_packs_most_loaded_fitting(self):
        policy = PlacementPolicy(3)
        assert policy.choose("a", 0.3, [0.6, 0.2, 0.0]) == 0
        # 0.6 no longer fits; the next most-loaded core wins.
        assert policy.choose("b", 0.5, [0.6, 0.2, 0.0]) == 1

    def test_tie_break_is_deterministic(self):
        policy = PlacementPolicy(4, seed=7)
        first = policy.choose("a", 0.5, [0.0, 0.0, 0.0, 0.0])
        assert policy.choose("a", 0.5, [0.0, 0.0, 0.0, 0.0]) == first
        assert (PlacementPolicy(4, seed=7)
                .choose("a", 0.5, [0.0, 0.0, 0.0, 0.0]) == first)

    def test_share_over_one_core_refused(self):
        with pytest.raises(PlacementError):
            PlacementPolicy(4).choose("a", 1.5, [0.0] * 4)

    def test_no_core_fits_refused_despite_aggregate_spare(self):
        # 0.4 + 0.5 spare in aggregate, but no single core has 0.6.
        with pytest.raises(PlacementError) as err:
            PlacementPolicy(2).choose("a", 0.6, [0.6, 0.5])
        assert "aggregate spare" in str(err.value)

    def test_load_vector_length_checked(self):
        with pytest.raises(ValueError):
            PlacementPolicy(2).choose("a", 0.1, [0.0])

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            PlacementPolicy(0)

