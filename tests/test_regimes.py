"""Tests for the regimes subsystem (:mod:`repro.regimes`).

Covers the segmentation stretch driver and its base+limit fast path,
the per-stretch pager registry (multi-pager domains, declared
revocation order), the satellite coexistence scenarios — nailed
refusal under the escalation ladder, forgetful + mapped-file sharing
one contract, mapped-file dirty cleaning under revocation — plus the
mission-schema plumbing, the committed regime missions and Table 1's
seg-vs-paged fault-cost side observation.
"""

import os

import pytest

from repro.hw.mmu import AccessKind
from repro.hw.platform import Machine
from repro.kernel.threads import Touch
from repro.missions import validate_mission
from repro.missions.validate import MissionError
from repro.regimes import (PagerRegistry, SegDriver, SegExtent,
                           SegTranslation)
from repro.sched.atropos import QoSSpec
from repro.sim.units import MS, SEC
from repro.system import NemesisSystem

MB = 1024 * 1024
QOS = QoSSpec(period_ns=100 * MS, slice_ns=50 * MS, extra=True,
              laxity_ns=5 * MS)
#: A 20% share: two or three of these fit under USD admission control.
Q20 = QoSSpec(period_ns=250 * MS, slice_ns=50 * MS, laxity_ns=10 * MS)


def tiny_system(mem_mb=2, timeout=50 * MS, rounds=3):
    """A small machine so guaranteed requests force real revocation."""
    return NemesisSystem(machine=Machine(name="tiny",
                                         phys_mem_bytes=mem_mb * MB),
                         revocation_timeout=timeout,
                         max_revocation_rounds=rounds)


def touching(stretch, count, kind=AccessKind.WRITE):
    def body():
        for index in range(count):
            yield Touch(stretch.va_of_page(index), kind)
    return body()


def run_thread(system, app, gen, limit=120 * SEC):
    thread = app.spawn(gen)
    system.sim.run_until_triggered(thread.done, limit=limit)
    return thread


def drain(gen):
    """Drive a ``release_frames`` generator; return its arranged count."""
    try:
        next(gen)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("release_frames yielded unexpectedly")


def guaranteed_request(system, k=8, name="needy"):
    """A fresh domain exercising its guarantee (forces revocation)."""
    needy = system.new_app(name, guaranteed_frames=k)
    request = needy.frames.request_frames(k)
    granted = system.sim.run_until_triggered(request, limit=60 * SEC)
    return needy, granted


# ---------------------------------------------------------------------------
# PagerRegistry
# ---------------------------------------------------------------------------

class _FakeStretch:
    def __init__(self, sid):
        self.sid = sid


class TestPagerRegistry:
    def test_registration_order_is_default_revocation_order(self):
        registry = PagerRegistry()
        a, b, c = object(), object(), object()
        for driver in (a, b, c):
            registry.register(driver)
        assert registry.in_priority_order() == [a, b, c]
        assert registry.drivers == [a, b, c]

    def test_explicit_priority_reorders_revocation_not_demux(self):
        registry = PagerRegistry()
        cache, nailed = object(), object()
        registry.bind(_FakeStretch(1), nailed, priority=9)
        registry.bind(_FakeStretch(2), cache, priority=1)
        # Cache pays first despite registering second...
        assert registry.in_priority_order() == [cache, nailed]
        # ...while fault demux stays strictly by stretch ownership.
        assert registry.driver_for_sid(1) is nailed
        assert registry.driver_for_sid(2) is cache

    def test_ties_break_by_registration_order(self):
        registry = PagerRegistry()
        a, b = object(), object()
        registry.register(a, priority=5)
        registry.register(b, priority=5)
        assert registry.in_priority_order() == [a, b]

    def test_reregistration_is_idempotent_and_reranks(self):
        registry = PagerRegistry()
        driver = object()
        registry.register(driver)
        registry.register(driver)
        assert len(registry) == 1
        registry.register(driver, priority=7)
        assert registry.priority_of(driver) == 7


# ---------------------------------------------------------------------------
# SegDriver + SegTranslation
# ---------------------------------------------------------------------------

def seg_app(system, pages=16, guaranteed=None, extra=0, name="seg"):
    app = system.new_app(name,
                         guaranteed_frames=guaranteed or pages + 2,
                         extra_frames=extra)
    stretch = app.new_stretch(pages * system.machine.page_size)
    driver = app.seg_driver()
    app.bind(stretch, driver)
    return app, stretch, driver


class TestSegDriver:
    def test_first_touch_maps_the_whole_extent(self, system):
        app, stretch, driver = seg_app(system)
        run_thread(system, app, touching(stretch, stretch.npages))
        extent = driver.seg.extent_of(stretch.sid)
        assert extent is not None
        assert extent.limit == stretch.npages
        # One slow fault backed the entire stretch; every later touch
        # resolved through the base+limit entry, not the page table.
        assert driver.faults_slow == 1
        assert driver.extent_installs == 1
        assert driver.seg.hits > 0

    def test_extent_translation_is_base_plus_offset(self):
        extent = SegExtent(sid=7, domain=None, base_vpn=0x100,
                           base_pfn=40, limit=8)
        assert extent.covers(0x100) and extent.covers(0x107)
        assert not extent.covers(0x108) and not extent.covers(0xff)
        assert extent.pfn_of(0x105) == 45

    def test_release_frames_shrinks_the_tail(self, system):
        app, stretch, driver = seg_app(system)
        run_thread(system, app, touching(stretch, stretch.npages))
        arranged = drain(driver.release_frames(4))
        assert arranged == 4
        extent = driver.seg.extent_of(stretch.sid)
        assert extent.limit == stretch.npages - 4
        # The shrunk pages' frames sit unused for the allocator.
        tail = [extent.base_pfn + extent.limit + i for i in range(4)]
        assert all(app.frames.owns_unused(pfn) for pfn in tail)

    def test_fault_on_shrunk_page_regrows_the_extent(self, system):
        app, stretch, driver = seg_app(system)
        run_thread(system, app, touching(stretch, stretch.npages))
        drain(driver.release_frames(4))
        run_thread(system, app, touching(stretch, stretch.npages))
        extent = driver.seg.extent_of(stretch.sid)
        assert extent.limit == stretch.npages
        assert driver.extent_grows == 1

    def test_fault_past_a_taken_tail_replaces_the_extent(self, system):
        """The shrunk tail's frames now belong to another domain, so
        the extent cannot regrow in place: the driver tears it down
        and installs a whole new one elsewhere."""
        app, stretch, driver = seg_app(system)
        run_thread(system, app, touching(stretch, stretch.npages))
        drain(driver.release_frames(4))
        extent = driver.seg.extent_of(stretch.sid)
        tail = [extent.base_pfn + extent.limit + i for i in range(4)]
        for pfn in tail:
            app.frames.free(pfn)
        other = system.new_app("other", guaranteed_frames=4)
        assert other.frames.alloc_now(pfns=tail) == tail
        thread = run_thread(system, app, touching(stretch, stretch.npages))
        assert thread.done.triggered
        assert driver.extent_replaces == 1
        assert driver.extent_installs == 2
        extent = driver.seg.extent_of(stretch.sid)
        assert extent is not None and extent.limit == stretch.npages
        for index in range(stretch.npages):
            vpn = stretch.base_vpn + index
            assert driver.seg.resolve(vpn) is extent
            pfn = extent.pfn_of(vpn)
            assert system.ramtab.owner(pfn) is app.domain
            assert system.ramtab.mapped_vpn(pfn) == vpn
        assert all(system.ramtab.owner(pfn) is other.domain for pfn in tail)

    def test_shutdown_reclaims_an_installed_extent(self, system):
        """Tearing down a domain that holds an extent truncates the
        extent away and returns every frame unmapped to the pool."""
        app, stretch, driver = seg_app(system)
        run_thread(system, app, touching(stretch, stretch.npages))
        extent = driver.seg.extent_of(stretch.sid)
        pfns = [extent.base_pfn + index for index in range(extent.limit)]
        app.shutdown()
        assert driver.seg.extent_of(stretch.sid) is None
        for index in range(stretch.npages):
            assert driver.seg.resolve(stretch.base_vpn + index) is None
        for pfn in pfns:
            assert system.physmem.is_free(pfn)
            assert system.ramtab.owner(pfn) is None
            assert system.ramtab.mapped_vpn(pfn) is None

    def test_revocation_ladder_shrinks_then_refault_recovers(self):
        """End to end: a guaranteed request elsewhere shrinks the seg
        domain's extent through the ordinary ladder; the seg domain
        survives, refaults, and ends fully mapped again."""
        system = tiny_system()
        app, stretch, driver = seg_app(system, pages=32, guaranteed=6,
                                       extra=64)
        run_thread(system, app, touching(stretch, stretch.npages))
        free = system.physmem.free_in_region("main")
        needy, granted = guaranteed_request(system, k=free + 8)
        assert len(granted) == free + 8
        extent = driver.seg.extent_of(stretch.sid)
        assert extent is None or extent.limit < stretch.npages
        assert app.frames.allocated >= min(app.frames.guaranteed,
                                           stretch.npages)
        # The claimant hands its windfall back; the seg domain refaults
        # (regrow or re-place — segment contents were lost either way)
        # and ends fully mapped again.
        for pfn in granted:
            needy.frames.free(pfn)
        run_thread(system, app, touching(stretch, stretch.npages))
        extent = driver.seg.extent_of(stretch.sid)
        assert extent is not None and extent.limit == stretch.npages

    def test_seg_drivers_share_the_mmus_registry(self):
        system = NemesisSystem()
        registry = system.mmu.seg
        assert isinstance(registry, SegTranslation)
        assert not registry.extents
        first = system.new_app("seg-a", guaranteed_frames=8)
        second = system.new_app("seg-b", guaranteed_frames=8)
        drivers = [first.seg_driver(), first.seg_driver(),
                   second.seg_driver()]
        assert all(isinstance(driver, SegDriver) for driver in drivers)
        assert all(driver.seg is registry for driver in drivers)
        assert system.mmu.seg is registry


# ---------------------------------------------------------------------------
# Nailed refusal under the escalation ladder
# ---------------------------------------------------------------------------

class TestNailedRefusal:
    def test_release_frames_offers_only_pool_frames(self, system):
        app = system.new_app("nailer", guaranteed_frames=20)
        driver = app.nailed_driver()
        stretch = app.new_stretch(8 * system.machine.page_size)
        app.bind(stretch, driver)
        driver.provide_frames(4)
        # Ask for far more than the pool: the nailed mappings are
        # immune, so only the 4 pool frames are arranged.
        assert drain(driver.release_frames(100)) == 4
        for vpn in range(stretch.base_vpn, stretch.base_vpn + 8):
            pte = system.pagetable.peek(vpn)
            assert pte is not None and pte.mapped and pte.nailed

    def test_allnailed_hog_is_killed_as_the_backstop(self):
        """A domain that nails every optimistic frame refuses every
        revocation round; the ladder kills it and reclaims wholesale —
        the guarantee elsewhere is still honoured."""
        system = tiny_system()
        total = system.physmem.region("main").frames
        hog = system.new_app("hog", guaranteed_frames=2,
                             extra_frames=total)
        free = system.physmem.free_in_region("main")
        driver = hog.nailed_driver()
        stretch = hog.new_stretch(free * system.machine.page_size)
        hog.bind(stretch, driver)    # nails every free frame
        assert hog.frames.allocated == free
        needy, granted = guaranteed_request(system, k=8)
        assert len(granted) == 8
        assert hog.frames.allocated == 0   # reclaimed wholesale


# ---------------------------------------------------------------------------
# Multi-pager coexistence
# ---------------------------------------------------------------------------

class TestMultiPagerDomain:
    def test_forgetful_and_mapped_file_share_one_contract(self, system):
        """Two personalities, one domain: faults demux by stretch,
        revocation order follows the declared priorities."""
        page = system.machine.page_size
        handle = system.filesystem.create("data.bin", 16 * page, Q20)
        app = system.new_app("multi", guaranteed_frames=24)
        forgetful = app.paged_driver(frames=8, swap_bytes=1 * MB,
                                     qos=Q20, forgetful=True)
        cache = app.new_stretch(16 * page)
        app.bind(cache, forgetful, priority=1)
        mapped = app.mmap_driver(handle, frames=4)
        window = app.new_stretch(16 * page)
        app.bind(window, mapped, priority=2)

        def body():
            for index in range(16):
                yield Touch(cache.va_of_page(index), AccessKind.WRITE)
                yield Touch(window.va_of_page(index), AccessKind.READ)

        run_thread(system, app, body())
        registry = app.mmentry.registry
        assert registry.driver_for_sid(cache.sid) is forgetful
        assert registry.driver_for_sid(window.sid) is mapped
        assert registry.in_priority_order() == [forgetful, mapped]
        # Each personality fielded its own stretch's faults.
        assert forgetful.zero_fills >= 16     # forgetful demand-zeroes
        assert mapped.pageins >= 16           # the file pages in
        assert mapped.zero_fills == 0
        assert handle.reads >= 16

    def test_mapped_file_cleans_dirty_pages_under_revocation(self):
        """Intrusive revocation of a mapped-file domain must write its
        dirty pages home (through its own stream) before the frames
        move — and the cooperating domain survives the ladder."""
        # Cleaning goes through the file's own stream: a 50% share and
        # a 200ms round deadline let a cooperating victim fit at least
        # one write per round (zero-progress rounds are strikes).
        system = tiny_system(mem_mb=2, timeout=200 * MS)
        page = system.machine.page_size
        handle = system.filesystem.create("dirty.bin", 64 * page, QOS)
        app = system.new_app("mmapper", guaranteed_frames=6,
                             extra_frames=64)
        mapped = app.mmap_driver(handle, frames=48, prefetch_depth=1)
        window = app.new_stretch(48 * page)
        app.bind(window, mapped)
        run_thread(system, app, touching(window, 48, AccessKind.WRITE))
        assert app.frames.allocated >= 48   # dirty resident set
        writes_before = handle.writes
        # The largest admissible guarantee: forces the ladder deep into
        # the mapped domain's optimistic frames.
        allocator = system.frames_allocator
        k = (system.physmem.region("main").frames
             - allocator.system_reserve - app.frames.guaranteed)
        needy, granted = guaranteed_request(system, k=k)
        assert len(granted) == k
        assert handle.writes > writes_before   # dirty pages went home
        assert app.frames.allocated >= app.frames.guaranteed
        # The domain is alive and can still fault its window back in.
        run_thread(system, app, touching(window, 4, AccessKind.READ))
        assert mapped.pageins > 0


# ---------------------------------------------------------------------------
# Mission schema plumbing
# ---------------------------------------------------------------------------

def mission_dict(domain):
    return {
        "schema": 1,
        "mission": {"name": "regimes-unit", "family": "regimes",
                    "seed": 1},
        "topology": {"machine_mb": 8},
        "workload": {"domains": [domain]},
        "phases": {"settle_sec": 0.1, "measure_sec": 0.1},
        "runs": [{"name": "steady"}],
    }


def pager_domain(**overrides):
    domain = {"kind": "pager", "name": "app", "period_ms": 50,
              "slice_ms": 20.0, "stretch_kb": 64,
              "driver_frames": 4, "swap_kb": 64,
              "guaranteed_frames": 20}
    domain.update(overrides)
    return domain


class TestMissionStretches:
    def test_multipager_domain_normalises(self):
        mission = validate_mission(mission_dict(pager_domain(stretches=[
            {"driver": "mapped-file", "pages": 4, "frames": 2,
             "priority": 1},
            {"driver": "nailed", "pages": 4, "priority": 9},
        ])))
        specs = mission["workload"]["domains"][0]["stretches"]
        assert [spec["driver"] for spec in specs] == ["mapped-file",
                                                      "nailed"]
        assert specs[0]["priority"] == 1

    def test_single_personality_domains_stay_bare(self):
        mission = validate_mission(mission_dict(pager_domain()))
        assert "stretches" not in mission["workload"]["domains"][0]

    def test_seg_driver_kind_validates(self):
        mission = validate_mission(mission_dict(pager_domain(
            driver_kind="seg", driver_frames=1, swap_kb=8,
            guaranteed_frames=0)))
        assert mission["workload"]["domains"][0]["driver_kind"] == "seg"

    def test_swap_on_nailed_stretch_names_the_field(self):
        with pytest.raises(MissionError) as err:
            validate_mission(mission_dict(pager_domain(stretches=[
                {"driver": "nailed", "pages": 4, "swap_kb": 64},
            ])))
        assert err.value.path == \
            "workload.domains[0].stretches[0].swap_kb"

    def test_frames_on_seg_stretch_names_the_field(self):
        with pytest.raises(MissionError) as err:
            validate_mission(mission_dict(pager_domain(stretches=[
                {"driver": "seg", "pages": 4, "frames": 2},
            ])))
        assert err.value.path == \
            "workload.domains[0].stretches[0].frames"

    def test_pinned_pages_above_guarantee_names_the_field(self):
        with pytest.raises(MissionError) as err:
            validate_mission(mission_dict(pager_domain(
                guaranteed_frames=4,
                stretches=[{"driver": "nailed", "pages": 8}])))
        assert err.value.path == \
            "workload.domains[0].guaranteed_frames"

    def test_duplicate_stretch_name_names_the_field(self):
        with pytest.raises(MissionError) as err:
            validate_mission(mission_dict(pager_domain(stretches=[
                {"driver": "nailed", "pages": 2, "name": "twin"},
                {"driver": "nailed", "pages": 2, "name": "twin"},
            ])))
        assert err.value.path == \
            "workload.domains[0].stretches[1].name"


# ---------------------------------------------------------------------------
# The experiment: Table 1's side observation and the committed missions
# ---------------------------------------------------------------------------

class TestRegimesExperiment:
    def test_fault_costs_favour_seg(self):
        from repro.exp.microbench import seg_vs_paged
        result = seg_vs_paged(pages=8)
        assert result["seg"]["faults"] == 1
        assert result["paged"]["faults"] == 8
        assert result["seg"]["ns_per_page"] < result["paged"]["ns_per_page"]
        assert 0 < result["seg_over_paged"] < 1

    def test_regime_missions_validate(self):
        from repro.missions import load_mission
        from tests.test_missions_runner import REPO

        def load(name):
            return load_mission(os.path.join(REPO, "missions",
                                             "%s.toml" % name))

        bandwidth = load("regimes-bandwidth")
        assert [d["driver_kind"] for d in
                bandwidth["workload"]["domains"]] == ["seg", "paged"]
        waves = load("regimes-revocation-waves")
        multi = waves["workload"]["domains"][0]
        assert len(multi["stretches"]) == 2
        assert [d["runs"] for d in waves["drivers"]] == [[], ["pressure"]]
