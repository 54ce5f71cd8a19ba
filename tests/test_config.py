from herzkit.config import RunConfig


def test_defaults_coerce_p_grid():
    cfg = RunConfig()
    assert [p.value for p in cfg.p_grid[:4]] == [1.0, 1.5, 2.0, 3.0]
    assert cfg.p_grid[-1].is_inf
