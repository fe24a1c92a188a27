"""Link failures and rerouting over surviving minimal paths."""

import pytest

from repro.errors import RoutingError
from repro.network import ExtollFabric
from repro.simkernel import Simulator

from tests.conftest import run_to_end


def make(adaptive=False):
    sim = Simulator()
    names = [f"bn{i}" for i in range(16)]
    fabric = ExtollFabric(sim, names, dims=(4, 4), adaptive=adaptive)
    for b in names:
        fabric.attach_endpoint(b)
    coords = {b: fabric.topo.graph.nodes[b]["coord"] for b in names}
    by_coord = {c: b for b, c in coords.items()}
    return sim, fabric, by_coord


def test_fail_unknown_link_rejected():
    sim, fabric, by = make()
    with pytest.raises(RoutingError):
        fabric.fail_link("bn0", "bn9")  # not adjacent


def test_transfer_reroutes_around_failed_link():
    sim, fabric, by = make()
    src, dst = by[(0, 0)], by[(2, 2)]
    # The static X-first route goes (0,0)->(1,0)->(2,0)->(2,1)->(2,2).
    fabric.fail_link(by[(1, 0)], by[(2, 0)])

    def p(sim):
        rec = yield from fabric.transfer(src, dst, 1 << 20)
        return rec

    rec = run_to_end(sim, p(sim))
    assert rec.hops == 4  # still a minimal path (via the Y-first route)
    # The dead link carried nothing.
    assert fabric.links[(by[(1, 0)], by[(2, 0)])].bytes_carried == 0


def test_no_surviving_route_raises():
    sim, fabric, by = make()
    src, dst = by[(0, 0)], by[(1, 1)]
    # Both minimal alternatives pass through (1,0) or (0,1).
    fabric.fail_link(by[(0, 0)], by[(1, 0)])
    fabric.fail_link(by[(0, 0)], by[(0, 1)])

    def p(sim):
        yield from fabric.transfer(src, dst, 1024)

    sim.process(p(sim))
    with pytest.raises(RoutingError):
        sim.run()


def test_restore_link_returns_to_static_route():
    sim, fabric, by = make()
    src, dst = by[(0, 0)], by[(2, 0)]
    # Failing a down link again changes nothing: one restore brings it back.
    fabric.fail_link(by[(1, 0)], by[(2, 0)])
    fabric.fail_link(by[(1, 0)], by[(2, 0)])
    fabric.restore_link(by[(1, 0)], by[(2, 0)])

    def p(sim):
        rec = yield from fabric.transfer(src, dst, 1 << 20)
        return rec

    rec = run_to_end(sim, p(sim))
    assert fabric.links[(by[(1, 0)], by[(2, 0)])].bytes_carried == 1 << 20
    assert rec.hops == 2


def test_restoring_an_up_link_does_not_hide_a_later_failure():
    sim, fabric, by = make()
    src, dst = by[(0, 0)], by[(2, 2)]
    fabric.fail_link(by[(3, 3)], by[(0, 3)])
    fabric.restore_link(by[(3, 3)], by[(0, 3)])
    fabric.restore_link(by[(3, 3)], by[(0, 3)])  # already up: no effect
    # The static X-first route goes (0,0)->(1,0)->(2,0)->(2,1)->(2,2).
    fabric.fail_link(by[(1, 0)], by[(2, 0)])

    def p(sim):
        rec = yield from fabric.transfer(src, dst, 1 << 20)
        return rec

    rec = run_to_end(sim, p(sim))
    assert rec.hops == 4
    assert fabric.links[(by[(1, 0)], by[(2, 0)])].bytes_carried == 0


def test_adaptive_mode_also_avoids_failed_links():
    sim, fabric, by = make(adaptive=True)
    src, dst = by[(0, 0)], by[(2, 2)]
    fabric.fail_link(by[(0, 0)], by[(1, 0)])

    def p(sim):
        rec = yield from fabric.transfer(src, dst, 1 << 20)
        return rec

    rec = run_to_end(sim, p(sim))
    assert rec.hops == 4
    assert fabric.links[(by[(0, 0)], by[(1, 0)])].bytes_carried == 0
