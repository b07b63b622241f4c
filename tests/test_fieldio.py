"""Field file round-trips and configuration parsing."""

import dataclasses
import re

import numpy as np
import pytest

from mvlab import conformal_metric, make_ball_domain, make_half_ball_domain
from mvlab.config import (
    domain_from_config,
    domain_to_config,
    generator_from_config,
    ledger_from_config,
    params_from_config,
)
from mvlab.errors import ConfigError, MVLabError
from mvlab.fieldio import read_field, write_field
from mvlab.grid import ScalarField
from mvlab.synth import GeneratorSpec, gen


def test_read_rejects_a_different_mask_by_its_digest(tmp_path):
    dom = make_ball_domain([0.0] * 3, 0.5, 1 / 16, 3)
    path = tmp_path / "field.txt"
    write_field(dom.field_from_function(lambda p: np.ones(len(p))), path)
    # same box, but the nodes at distance 0.49 <= d < 0.5 leave the mask (built
    # directly: make_ball_domain wants h <= r/8)
    other = dataclasses.replace(dom, radius=0.49)
    assert other.shape == dom.shape and np.array_equal(other.origin, dom.origin)
    assert not np.array_equal(other.mask, dom.mask)
    with pytest.raises(ConfigError, match="stored mask differs from the rebuilt grid"):
        read_field(path, other)
    assert read_field(path, dom).domain is dom


@pytest.mark.parametrize("value", ("yes", "True", "", "1"))
def test_read_rejects_a_density_line_other_than_true_or_false(tmp_path, value):
    dom = make_ball_domain([0.0] * 2, 0.5, 1 / 16, 2)
    path = tmp_path / "field.txt"
    # a signed field, which a density must not pass for
    write_field(dom.field_from_function(lambda p: p[:, 0], density=False), path)
    text = path.read_text(encoding="utf-8")
    assert read_field(path, dom).density is False
    path.write_text(text.replace("density=false", "density=true"), encoding="utf-8")
    with pytest.raises(MVLabError, match="negative values"):
        read_field(path, dom)
    path.write_text(text.replace("density=false", f"density={value}"), encoding="utf-8")
    with pytest.raises(ConfigError,
                       match=re.escape(f"{path}: malformed field file: density={value!r}")):
        read_field(path, dom)


def test_field_roundtrip_half_ball(tmp_path):
    dom = make_half_ball_domain([0.0, 0.0], 0.5, 1 / 32, 2)
    e = gen(GeneratorSpec("reflected_bubble", center=(0.0, 0.0), scale=1 / 4), dom)
    path = tmp_path / "field.txt"
    write_field(e, path)
    back = read_field(path)
    assert back.domain.kind == dom.kind
    assert back.domain.shape == dom.shape
    inside = dom.in_mask
    assert np.array_equal(back.box()[inside], e.box()[inside])
    assert back.density

    # shared-domain read skips the rebuild but still validates the header
    again = read_field(path, dom)
    assert again.domain is dom


def test_field_roundtrip_metric_ball(tmp_path):
    metric = conformal_metric(2, 0.02, axis=1)
    dom = make_ball_domain([0, 0], 0.5, 1 / 16, 2, metric)
    e = dom.field_from_function(lambda p: 1.0 + p[:, 0] ** 2)
    path = tmp_path / "metric_field.txt"
    write_field(e, path)
    back = read_field(path)
    assert back.domain.metric is not None
    assert back.domain.metric.config["preset"] == "conformal"
    assert np.array_equal(back.box()[dom.in_mask], e.box()[dom.in_mask])


EDGE_VALUES = [-0.0, 5e-324, 1.7976931348623157e308, 1 / 3]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", ["ball", "lifted_half_ball", "conformal_ball"])
def test_field_roundtrip_is_bitwise(tmp_path, kind, n):
    origin = [0.0] * n
    if kind == "ball":
        dom = make_ball_domain(origin, 0.5, 1 / 16, n)
    elif kind == "lifted_half_ball":
        dom = make_half_ball_domain([0.25] + origin[1:], 0.5, 1 / 16, n)
    else:
        dom = make_ball_domain(origin, 0.5, 1 / 16, n, conformal_metric(n, 0.02, axis=1))
    vals = np.random.default_rng(n).random(dom.node_count)
    vals[:len(EDGE_VALUES)] = EDGE_VALUES
    path = tmp_path / "field.txt"
    write_field(ScalarField(dom, vals.copy()), path)
    back = read_field(path)
    assert back.density
    assert np.array_equal(back.box()[dom.in_mask].view(np.uint64), vals.view(np.uint64))
    assert np.all(np.isnan(back.box()[~dom.in_mask]))


# sha256 of the files these fields write, then of the same files without
# their tag and mask lines. The second is also what the v2 files (mask run-length
# encoded) gave, written when fields were stored box-shaped, NaN off the mask:
# v3 changed those two lines only, and the bytes do not depend on how a field is held
PINNED_FIELD_FILES = {
    "density": ("602cfaade5ab271a2e898d029a85b99eadd2be870abbddb49635841c457ab80d",
                "6342e385891d8eb927c089d3a71ce8857f7029f407c8850c9e1b89fdf90323d4"),
    "laplacian": ("04ec15be06ed7f42d5405bd3d12770ccc7660f4a73ad69b485ebad89d2a55c21",
                  "97030b6e5a499eec13a64de2dc465e9d3d2c2f1a77d90e0f01855257f9771d7c"),
    "metric-laplacian": ("7152948406b57b757ac5e13b053109550e23a7dcad602a9e5ea9c811d5271b65",
                         "ecdef6a60920c43f29e76798ad6394a8a5856b2cdc217eb3a9ea94599cbfcf5c"),
}


def test_field_file_bytes_are_pinned(tmp_path):
    import hashlib

    from mvlab.calculus import laplacian

    dom = make_half_ball_domain([0.0, 0.0, 0.0], 0.5, 1 / 16, 3)
    e = dom.field_from_function(
        lambda p: 2.0 + np.cos(3.0 * p[:, 0]) * np.exp(p[:, 1]) + np.sum(p**2, axis=-1))
    metric_dom = make_ball_domain([0.0, 0.0], 0.5, 1 / 16, 2, conformal_metric(2, 0.01, axis=1))
    metric_e = metric_dom.field_from_function(lambda p: 1.0 + np.sum(p**2, axis=-1))
    # the Laplacians are NaN on the flat row and next to the mask's edge
    fields = {"density": e, "laplacian": laplacian(e), "metric-laplacian": laplacian(metric_e)}
    for name, field in fields.items():
        path = tmp_path / f"{name}.txt"
        write_field(field, path)
        data = path.read_bytes()
        tag, *lines = data.split(b"\n")
        assert tag == b"# mvlab-field v3"
        body = b"\n".join(line for line in lines if not line.startswith(b"mask_sha256="))
        assert (hashlib.sha256(data).hexdigest(),
                hashlib.sha256(body).hexdigest()) == PINNED_FIELD_FILES[name], name


def test_read_rejects_mismatched_domain(tmp_path):
    dom = make_ball_domain([0, 0], 0.5, 1 / 16, 2)
    e = dom.field_from_function(lambda p: np.ones(len(p)))
    path = tmp_path / "f.txt"
    write_field(e, path)
    other = make_ball_domain([0, 0], 0.5, 1 / 32, 2)
    with pytest.raises(ConfigError):
        read_field(path, other)


def test_domain_config_roundtrip():
    dom = make_half_ball_domain([0.25, 0.0], 0.5, 1 / 32, 2)
    cfg = domain_to_config(dom)
    back = domain_from_config(cfg)
    assert back.shape == dom.shape
    assert np.array_equal(back.mask, dom.mask)


def test_generator_config_parsing():
    cfg = {"kind": "sum", "parts": [
        {"kind": "constant", "amplitude": 0.5},
        {"kind": "bubble", "center": [0.1, 0.2], "scale": 0.25},
    ]}
    spec = generator_from_config(cfg)
    assert spec.kind == "sum"
    assert spec.parts[1].center == (0.1, 0.2)


def test_params_and_ledger_config():
    p = params_from_config({"A0": 1.0, "a": 2.0}, 2)
    assert p.A0 == 1.0 and p.a == 2.0 and p.B1 == 0.0
    led = ledger_from_config({"C": 1.0}, 2, p)
    assert led.eps_ab == 0.5
    led2 = ledger_from_config({"C": "measure"}, 2, p, measured_c=2.0)
    assert led2.c_master == 2.0
    assert led2.provenance["c_master"] == "measured"
    with pytest.raises(ConfigError):
        ledger_from_config({"C": "measure"}, 2, p)
    with pytest.raises(ConfigError):
        ledger_from_config({"C": "nonsense"}, 2, p)


def test_bad_config_errors():
    with pytest.raises(ConfigError):
        domain_from_config({"kind": "cube", "dimension": 2, "center": [0, 0],
                            "radius": 1.0, "spacing": 0.05})
    with pytest.raises(ConfigError):
        domain_from_config({"kind": "ball"})
