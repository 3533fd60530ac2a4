import math

import numpy as np
import pytest

from lenspace.fields import (coordinate_field, cosine_field, load_field_csv,
                             random_smoothed_field, resolve_field,
                             save_field_csv, tilt_field)


def test_coordinate_field_gaussian(gauss101):
    f = coordinate_field(gauss101)
    assert f.values[0] == -4.0
    assert f.values[-1] == 4.0
    assert f.values[50] == 0.0


def test_coordinate_field_needs_1d(torus8):
    with pytest.raises(ValueError, match="no 1-d coordinate"):
        coordinate_field(torus8)


def test_cosine_field_circle(circle64):
    f = cosine_field(circle64)
    assert f.values[0] == 1.0
    assert f.values[16] == pytest.approx(0.0, abs=1e-12)
    assert f.values[32] == pytest.approx(-1.0, rel=1e-12)


def test_cosine_field_torus_uses_x(torus8):
    f = cosine_field(torus8)
    # constant along y rows
    assert f.values[0] == f.values[1]
    assert f.values[0] == 1.0


def test_cosine_field_rejects_path(path3):
    with pytest.raises(ValueError, match="circle or torus2d"):
        cosine_field(path3)


def test_tilt_field_closed_form(gauss101):
    f = tilt_field(gauss101, 0.5)
    x = gauss101.coords.ravel()
    assert np.allclose(f.values, np.exp(0.25 * x), rtol=1e-15)


def test_random_smoothed_is_sup_normalized(circle64):
    f = random_smoothed_field(circle64, np.random.default_rng(3))
    assert np.abs(f.values).max() == pytest.approx(1.0, rel=1e-12)


def test_random_smoothed_deterministic(circle64):
    a = random_smoothed_field(circle64, np.random.default_rng(9))
    b = random_smoothed_field(circle64, np.random.default_rng(9))
    assert np.array_equal(a.values, b.values)


def test_random_smoothed_is_smoother_than_noise(circle256):
    from lenspace import lipschitz_constant
    f = random_smoothed_field(circle256, np.random.default_rng(2))
    # Q_{t0} pulls the Lipschitz constant below diam/t0
    assert lipschitz_constant(circle256, f) <= circle256.diameter / (10 * circle256.mesh_h ** 2)


def test_resolve_field_names(circle64, gauss101):
    assert np.array_equal(resolve_field(circle64, "cos").values,
                          cosine_field(circle64).values)
    assert np.array_equal(resolve_field(gauss101, "coordinate").values,
                          coordinate_field(gauss101).values)
    assert np.array_equal(resolve_field(gauss101, "coord").values,
                          coordinate_field(gauss101).values)
    assert np.array_equal(resolve_field(gauss101, "tilt:0.5").values,
                          tilt_field(gauss101, 0.5).values)


def test_resolve_field_random_indexed(circle64):
    a = resolve_field(circle64, "random:3", seed=5)
    b = resolve_field(circle64, "random:3", seed=5)
    c = resolve_field(circle64, "random:4", seed=5)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_resolve_field_unknown(circle64):
    with pytest.raises(ValueError, match="unknown field"):
        resolve_field(circle64, "wavelet:3")


def test_field_csv_round_trip(tmp_path, gauss101):
    f = tilt_field(gauss101, 0.75)
    p = tmp_path / "f.csv"
    save_field_csv(f, str(p))
    back = load_field_csv(gauss101, str(p))
    assert np.array_equal(back.values, f.values)


def test_resolve_field_csv_path(tmp_path, circle64):
    f = cosine_field(circle64)
    p = tmp_path / "c.csv"
    save_field_csv(f, str(p))
    assert np.array_equal(resolve_field(circle64, str(p)).values, f.values)


def test_load_field_csv_errors(tmp_path, path3):
    p = tmp_path / "bad.csv"
    p.write_text("vertex,val\n0,1.0\n")
    with pytest.raises(ValueError, match="header"):
        load_field_csv(path3, str(p))
    p.write_text("index,value\n0,1.0\n7,2.0\n")
    with pytest.raises(ValueError, match="outside"):
        load_field_csv(path3, str(p))
    p.write_text("index,value\n0,1.0\n1,2.0\n")
    with pytest.raises(ValueError, match="no value for point 2"):
        load_field_csv(path3, str(p))
    p.write_text("index,value\n0,one\n1,2.0\n2,0.0\n")
    with pytest.raises(ValueError, match="bad row"):
        load_field_csv(path3, str(p))


def test_load_field_csv_rejects_repeated_index(tmp_path, path3):
    # a repeated index used to load, with its last row's value
    p = tmp_path / "twice.csv"
    p.write_text("index,value\n0,1.0\n1,2.0\n2,3.0\n0,5.0\n")
    with pytest.raises(ValueError, match="index 0 repeated"):
        load_field_csv(path3, str(p))


def test_load_field_csv_nan_value_is_not_missing(tmp_path, path3):
    # a row that reads nan is present: it fails as a non-finite value, not as
    # a missing point
    p = tmp_path / "nan.csv"
    p.write_text("index,value\n0,nan\n1,2.0\n2,3.0\n")
    with pytest.raises(ValueError, match="field values must be finite"):
        load_field_csv(path3, str(p))
