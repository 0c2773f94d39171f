"""lindblad's index plans: one per pattern, the same bytes from a cold cache as from a warm one."""

import numpy as np
import pytest

from dense_round_trip import liouvillian_from_dense

from polent import cli, lindblad
from polent.lindblad import build_liouvillian, steady_state
from polent.model import (DimensionlessParams, LindbladModel, PhysicalParams, build_effective_model,
                          build_full_model)
from polent.qops import HilbertSpace

BUILDERS = ("_assembly_plan", "_real_form_plan", "_exchange_plan", "_whole_plan")


@pytest.fixture
def cold(monkeypatch):
    """An empty plan cache for the test, with room for every plan, and the count of each builder's calls."""
    monkeypatch.setattr(lindblad, "_PLANS", {})
    monkeypatch.setattr(lindblad, "PLAN_BYTES", 1 << 40)
    calls = dict.fromkeys(BUILDERS, 0)
    for name in BUILDERS:
        build = getattr(lindblad, name)

        def counted(*args, build=build, name=name):
            calls[name] += 1
            return build(*args)

        counted.__name__ = name
        monkeypatch.setattr(lindblad, name, counted)
    return calls


def sweep_block(zeta_zero=False):
    # block 12 of the default grid, or its points with zeta set to 0
    zs, xs = (np.linspace(lo, hi, steps) for lo, hi, steps in cli._grid(cli.DEFAULT_GRID))
    z, x1 = (v[3072:3328] for v in (np.repeat(zs, len(xs)), np.tile(xs, len(zs))))
    return build_effective_model(DimensionlessParams(0.0 * z if zeta_zero else z, x1, np.zeros_like(z)))


def broken(n_max):
    m = build_full_model(PhysicalParams(1.0, 10.0, 10.0, 0.01, 0.5, n_max=n_max))
    return LindbladModel(m.space, m.hamiltonian, (m.jumps[0], np.sqrt(1.5) * m.jumps[1], m.jumps[2]))


def every_read(m) -> list[bytes]:
    """The bytes of L, its real form, its exchange read and its steady state, for one model or a stack."""
    liouv = build_liouvillian(m)
    k, l, entries, largest = real = lindblad._real_form(liouv)
    adapted = lindblad._to_exchange_basis(k, l, entries, liouv.space)
    result = steady_state(liouv)
    arrays = (liouv.rows, liouv.cols, liouv.values, *real, *adapted, result.rho.matrix, result.gap,
              result.residual)
    return [np.asarray(a).tobytes() for a in arrays]


MODELS = {
    "block": sweep_block,
    "point": lambda: build_effective_model(DimensionlessParams(5.210641, 1.107693)),
    "complex drive": lambda: build_effective_model(DimensionlessParams(10.0, 2.135, 0.3)),
    "full, whole": lambda: build_full_model(PhysicalParams(1.0, 10.0, 10.0, 0.01, 0.5, n_max=3)),
    "full, levels": lambda: build_full_model(PhysicalParams(1.0, 10.0, 10.0, 0.01, 0.5, n_max=6)),
    "broken": lambda: broken(2),
}


@pytest.mark.parametrize("name", MODELS)
def test_a_cold_and_a_warm_cache_give_the_same_bytes(cold, name):
    m = MODELS[name]()
    first = every_read(m)
    built = dict(cold)
    assert built["_assembly_plan"] == built["_real_form_plan"] == built["_exchange_plan"] == 1
    assert built["_whole_plan"] == (name != "full, levels")  # the level route reads no whole plan
    assert every_read(m) == first
    assert cold == built  # the second pass built nothing


def test_a_block_that_drops_a_position_has_a_plan_of_its_own(cold):
    # at zeta = 0 the coupling is 0 in every member, and L loses the positions that only it fills
    generic = build_liouvillian(sweep_block())
    every_read(sweep_block())
    dropped = build_liouvillian(sweep_block(zeta_zero=True))
    keys = set(zip(generic.rows.tolist(), generic.cols.tolist()))
    assert set(zip(dropped.rows.tolist(), dropped.cols.tolist())) < keys
    warm = every_read(sweep_block(zeta_zero=True))
    lindblad._PLANS.clear()
    assert every_read(sweep_block(zeta_zero=True)) == warm


def test_plan_arrays_are_read_only(cold):
    for make in MODELS.values():
        every_read(make())
    # the full model solved whole, by levels (no whole plan) and broken, and the reduced model at least
    assert len(lindblad._PLANS) >= 4 + 3 + 4 + 4

    def arrays(plan):
        for item in plan:
            yield from ([item] if isinstance(item, np.ndarray) else arrays(item))

    for plan, _ in lindblad._PLANS.values():
        for array in arrays(plan):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array.reshape(-1)[:1] = 0


def test_the_cache_stays_at_its_bound(cold, monkeypatch):
    # 12 patterns, with real-form plans of 1.4-3.1 kB, pass through a bound of 5 kB
    monkeypatch.setattr(lindblad, "PLAN_BYTES", 5000)
    rng = np.random.default_rng(3)
    space = HilbertSpace((3,))
    patterns = [liouvillian_from_dense(space, rng.normal(size=(9, 9)) * (rng.random((9, 9)) < 0.3))
                for _ in range(12)]
    held = []
    for liouv in patterns:
        lindblad._real_form(liouv)
        lindblad._real_form(patterns[0])  # read again each time: the most recently used stays
        held.append(sum(size for _, size in lindblad._PLANS.values()))
        assert held[-1] <= 5000
    assert cold["_real_form_plan"] == 12 and len(lindblad._PLANS) < 12 and max(held) > 5000 - 2000
    first = tuple((a.dtype.str, a.shape, a.tobytes()) for a in (patterns[0].rows, patterns[0].cols))
    assert list(lindblad._PLANS)[-1][2:] == first


def test_a_plan_larger_than_the_bound_is_not_kept(cold, monkeypatch):
    monkeypatch.setattr(lindblad, "PLAN_BYTES", 30_000)  # the reduced model's four plans take 23 kB
    small = build_effective_model(DimensionlessParams(5.210641, 1.107693))
    every_read(small)
    kept = dict(lindblad._PLANS)
    assert len(kept) == 4
    first = every_read(MODELS["full, whole"]())  # each of its plans exceeds the bound
    assert lindblad._PLANS.keys() == kept.keys()
    assert every_read(MODELS["full, whole"]()) == first
    assert cold["_real_form_plan"] == 1 + 2 * 2  # the large model's two reads a pass build it anew
