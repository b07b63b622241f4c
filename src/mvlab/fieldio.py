"""Field serialization: a key=value text header with a sha256 digest of the
mask, then the in-mask node values in lexicographic (C) order as one base64
line of little-endian float64."""

from __future__ import annotations

import base64
import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .config import domain_from_config, domain_to_config
from .errors import ConfigError
from .grid import Domain, ScalarField

FORMAT_TAG = "mvlab-field v3"


def _mask_digest(dom: Domain) -> str:
    """sha256 of the domain mask's int8 bytes in C order, as hex."""
    import hashlib  # here, so importing the CLI does not load it

    return hashlib.sha256(dom.mask.tobytes()).hexdigest()


def write_field(e: ScalarField, path: str | Path) -> None:
    dom = e.domain
    lines = [f"# {FORMAT_TAG}"]
    lines.append(f"domain={json.dumps(domain_to_config(dom), sort_keys=True)}")
    lines.append(f"origin={','.join(repr(float(x)) for x in dom.origin)}")
    lines.append(f"shape={','.join(str(s) for s in dom.shape)}")
    lines.append(f"density={'true' if e.density else 'false'}")
    lines.append(f"mask_sha256={_mask_digest(dom)}")
    lines.append("values:")
    vals = e.values.astype("<f8", copy=False)
    lines.append(base64.b64encode(vals.tobytes()).decode("ascii"))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@contextmanager
def _malformed(path):
    """Parse errors in the field file ``path`` as a ConfigError naming it."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"{path}: missing header line {exc.args[0]}=") from exc
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: malformed field file: {exc}") from exc


def read_field(path: str | Path, domain: Domain | None = None) -> ScalarField:
    """Read a field file. Passing an existing ``domain`` skips rebuilding the
    grid (useful for sequences sharing one domain) but still verifies the
    stored header against it."""
    try:
        text = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read the field file ({exc})") from exc
    if not text or not text[0].startswith(f"# {FORMAT_TAG}"):
        raise ConfigError(f"{path}: not a {FORMAT_TAG} file")
    header: dict[str, str] = {}
    value_start = None
    for i, line in enumerate(text[1:], start=1):
        if line == "values:":
            value_start = i + 1
            break
        if "=" not in line:
            raise ConfigError(f"{path}: malformed header line {i + 1}: {line!r}")
        key, _, val = line.partition("=")
        header[key] = val
    if value_start is None:
        raise ConfigError(f"{path}: missing values section")

    with _malformed(path):
        dom_cfg = json.loads(header["domain"])
        stored_shape = tuple(int(s) for s in header["shape"].split(","))
        stored_origin = np.array([float(x) for x in header["origin"].split(",")])
        digest = header["mask_sha256"]
        density = header.get("density", "true")
        if density not in ("true", "false"):
            raise ValueError(f"density={density!r}, expected true or false")
        payload = text[value_start:]
        if len(payload) != 1:
            raise ValueError(f"{len(payload)} lines after 'values:', expected one")
        raw = base64.b64decode(payload[0], validate=True)
        if len(raw) % 8:
            raise ValueError(f"{len(raw)} value bytes, not a whole number of float64")
        vals_flat = np.frombuffer(raw, "<f8")
    if domain is None:
        try:
            domain = domain_from_config(dom_cfg)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    if stored_shape != domain.shape:
        raise ConfigError(f"{path}: stored shape {stored_shape} != rebuilt "
                          f"shape {domain.shape}")
    if not np.allclose(stored_origin, domain.origin, atol=1e-12):
        raise ConfigError(f"{path}: stored origin differs from the rebuilt grid")
    if digest != _mask_digest(domain):
        raise ConfigError(f"{path}: stored mask differs from the rebuilt grid")

    count = len(domain._mask_nodes)
    if vals_flat.size != count:
        raise ConfigError(f"{path}: {vals_flat.size} values for {count} in-mask nodes")
    return ScalarField(domain, vals_flat.astype(float, copy=False), density == "true")
