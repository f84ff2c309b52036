"""JSON file formats for states, kernels, forms, and coefficient families.

Complex tensors are stored as nested row-major lists whose innermost
entries are [re, im] pairs.  Every file carries its lattice so results
are self-describing.  Values are finite: a non-finite tensor is refused
before its file is opened, and ``NaN`` or ``Infinity`` tokens, and numbers
beyond the float range, are refused on load.  A file of the wrong
structure (not a JSON object of the expected kind, or with a missing or
ill-typed field) is refused with a ValueError that names it.

A form file holds the full dense blocks V_l C V_k^H of the form over all
tuples, and its header carries the scattering model as the ``scattering``
object of a run config, because the orbit basis V depends on it.  Loading
stores each block on the orbits of that model again; a file without a
model, or with a block that differs from its own symmetric part by more
than ``FORM_SYMMETRY_RTOL`` of the block's largest entry, is refused.

A coefficient family is one file, ``manifest.json`` in its directory,
with the model in its header.  Each record of ``entries`` holds ``m``,
``n`` and ``values``: the orbit matrix F, of shape (orbits_m, orbits_n),
of the coefficient f = V_m F V_n^T (``zops.OrbitKernel``), which is read
as it stands.  The orbits of a sector are its sorted tuples, strictly
increasing when S(0) = -1, in row-major order; the column of V of an
orbit has unit norm and is real and positive at the sorted tuple.  An
entry above the truncation or listed twice, a matrix of the wrong shape
and an old family, whose entries name dense kernel files, are refused;
such a family must be expanded from its form again, into a directory
that holds no old family: writing into one is refused too, and leaves it
as it is.

A file holds exactly the bytes of ``json.dumps`` of its document with the
tensors as nested ``[re, im]`` lists.  The tensor payloads are encoded and
decoded by orjson, and any valid JSON of the same layout loads, whatever
its whitespace; everything else goes through the stdlib ``json``.  orjson
is imported by the functions that use it, so ``import zfock`` leaves it
unloaded.
"""

from __future__ import annotations

import contextlib
import json
import json.scanner
import math
import os
import re

import numpy as np

from .config import (_check_scattering, _is_finite, _is_int, build_scattering,
                     scattering_config)
from .expansion import CoefficientFamily
from .fock import FockState, RapidityGrid
from .scattering import ScatteringModel
from .zops import KernelTensor, OrbitKernel, QuadraticForm, orbit_dimension

# a loaded block may differ from its S-symmetric part by this much of its largest entry
FORM_SYMMETRY_RTOL = 1e-10

# numbers per orjson call when a tensor is written: about 256 KB of text
_SLAB_NUMBERS = 10_000


def complex_to_nested(arr: np.ndarray) -> list:
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def nested_to_complex(data, shape: tuple[int, ...]) -> np.ndarray:
    arr = np.ascontiguousarray(data, dtype=float)
    if arr.size == 0 and math.prod(shape) == 0:
        # an orbit block with no rows or no columns is written as [] or [[], ...]
        return np.zeros(shape, dtype=complex)
    if arr.shape != shape + (2,):
        raise ValueError(f"payload shape {arr.shape} does not match {shape + (2,)}")
    return arr.view(complex)[..., 0]  # keeps the sign of a zero, unlike re + 1j * im


def _repr_tokens(text: str) -> str:
    """orjson's array text with each number as repr writes it.

    orjson prints the digits of repr, but not repr's exponent form, which
    repr takes for nonzero |x| < 1e-4 and for |x| >= 1e16: orjson writes
    those as 0.0000... or with an exponent of its own layout.  Only the
    tokens holding an ``e`` or ``0.0000`` are rewritten.
    """
    parts = []
    start = 0
    while True:
        hits = [i for i in (text.find("e", start), text.find("0.0000", start)) if i >= 0]
        if not hits:
            break
        hit = min(hits)
        first = max(text.rfind("[", 0, hit), text.rfind(",", 0, hit)) + 1
        comma = text.find(",", hit)
        end = text.find("]", hit)
        end = end if comma < 0 else min(comma, end)
        parts += [text[start:first], repr(float(text[first:end]))]
        start = end
    parts.append(text[start:])
    return "".join(parts)


def _write_json(fh, obj) -> None:
    """Write what ``json.dump`` writes, with ndarrays as ``complex_to_nested`` lists.

    Keys and scalars go through the C encoder of ``json.dumps``; a tensor
    is encoded by orjson in slabs of rows of about ``_SLAB_NUMBERS``
    numbers, so no whole document is held as nested lists or as text.
    """
    if isinstance(obj, dict):
        fh.write("{")
        for i, (key, value) in enumerate(obj.items()):
            fh.write((", " if i else "") + json.dumps(key) + ": ")
            _write_json(fh, value)
        fh.write("}")
    elif isinstance(obj, list):
        fh.write("[")
        for i, item in enumerate(obj):
            if i:
                fh.write(", ")
            _write_json(fh, item)
        fh.write("]")
    elif isinstance(obj, np.ndarray) and obj.ndim:
        import orjson

        arr = np.asarray(obj, dtype=complex)
        pairs = np.ascontiguousarray(np.stack([arr.real, arr.imag], axis=-1))
        rows = max(1, _SLAB_NUMBERS * len(pairs) // max(1, pairs.size))
        fh.write("[")
        for i in range(0, len(pairs), rows):
            text = orjson.dumps(pairs[i:i + rows], option=orjson.OPT_SERIALIZE_NUMPY).decode()
            # the slab's rows, without the brackets of the slab
            fh.write((", " if i else "") + _repr_tokens(text)[1:-1].replace(",", ", "))
        fh.write("]")
    else:
        fh.write(json.dumps(complex_to_nested(obj) if isinstance(obj, np.ndarray) else obj))


def _require_finite(path, tensors) -> None:
    for arr in tensors:
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{path}: refusing to write non-finite values")


_LEADING = re.compile(r"(?:\[[ \t\n\r]*)+")
_NUMBER_CHARS = str.maketrans("", "", "0123456789.eE+- \t\n\r")
_UNBRACKET = str.maketrans("[]", "  ")


def _skeleton(shape) -> str:
    """The brackets and commas of a JSON array of ``shape``, without its numbers."""
    text = ""
    for n in reversed(shape):
        text = "[" + ",".join([text] * n) + "]"
    return text


def _shape_of(skeleton: str) -> tuple[int, ...]:
    """The shape whose skeleton begins as ``skeleton`` does, read off its first elements."""
    depth = len(skeleton) - len(skeleton.lstrip("["))
    shape, inner = [], 0
    for k in reversed(range(depth)):
        # the first array at depth k ends at the first run of depth - k closing brackets
        length = skeleton.find("]" * (depth - k)) + depth - 2 * k
        shape.insert(0, (length - 1) // (inner + 1))
        inner = length
    return tuple(shape)


def _parse_array(s_and_end, scan_once):
    """Read a regular all-number array of depth >= 2 as a float ndarray, with orjson.

    Regular means its brackets and commas are those of some shape.  Any
    other array, and one whose numbers orjson refuses, is read by
    ``json.decoder.JSONArray``, so json's errors and NaN handling stay.
    """
    import orjson

    s, end = s_and_end
    depth = _LEADING.match(s, end - 1).group().count("[")
    # the first run of depth closing brackets ends a regular array
    closer = re.compile(r"\](?:[ \t\n\r]*\]){%d}" % (depth - 1))
    if depth > 1 and (close := closer.search(s, end)):
        skeleton = s[end - 1:close.end()].translate(_NUMBER_CHARS)
        shape = _shape_of(skeleton)
        if skeleton == _skeleton(shape):
            try:
                flat = orjson.loads("[%s]" % s[end:close.end()].translate(_UNBRACKET))
            except orjson.JSONDecodeError:
                flat = ()
            if len(flat) == math.prod(shape):
                return np.array(flat, dtype=float).reshape(shape), close.end()
    return json.decoder.JSONArray(s_and_end, scan_once)


class _TensorDecoder(json.JSONDecoder):
    """json's decoder with ``_parse_array``, through the scanner that calls it.

    The C scanner ignores ``parse_array``; the pure-Python one calls it.
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.parse_array = _parse_array
        self.scan_once = json.scanner.py_make_scanner(self)


def _load_json(path):
    """Parse a JSON file, refusing the NaN and Infinity tokens json accepts.

    A number beyond the float range, such as 1e400, which json reads as an
    infinity, is refused too.
    """
    def reject(token):
        raise ValueError(f"{path}: non-finite number {token}")

    def finite(token):
        value = float(token)
        if not math.isfinite(value):
            reject(token)
        return value

    with open(path) as fh:
        return json.load(fh, cls=_TensorDecoder, parse_constant=reject, parse_float=finite)


@contextlib.contextmanager
def _document(path, kind: str, what: str):
    """The JSON object of a ``kind`` file, for reading its fields.

    Any other document, and a missing or ill-typed field read in the
    ``with`` body, raise a ValueError naming the file.
    """
    doc = _load_json(path)
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        raise ValueError(f"{path} is not a {what}")
    try:
        yield doc
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: malformed field: {exc}") from None


def _field(data: dict, key: str, accept, what: str):
    """``data[key]``, refused with a TypeError unless ``accept`` holds for it."""
    value = data[key]
    if not accept(value):
        raise TypeError(f"{key} must be {what}, got {value!r}")
    return value


def _int_field(data: dict, key: str) -> int:
    return _field(data, key, _is_int, "a JSON integer")


def _grid_header(grid: RapidityGrid) -> dict:
    return {"grid": list(grid.points), "mass": grid.mass}


def _grid_from_header(data: dict) -> RapidityGrid:
    points = _field(data, "grid", lambda v: isinstance(v, list) and all(map(_is_finite, v)),
                    "a list of finite JSON numbers")
    mass = _field(data, "mass", _is_finite, "a finite JSON number")
    return RapidityGrid(tuple(points), float(mass))


def save_state(path: str, state: FockState) -> None:
    doc = {
        "kind": "fock_state",
        **_grid_header(state.grid),
        "truncation": state.truncation,
        "sectors": list(state.sectors),
    }
    _require_finite(path, state.sectors)
    with open(path, "w") as fh:
        _write_json(fh, doc)


def load_state(path: str) -> FockState:
    with _document(path, "fock_state", "state file") as doc:
        grid = _grid_from_header(doc)
        N = grid.size
        K = _int_field(doc, "truncation")
        sectors = [nested_to_complex(sec, (N,) * n) for n, sec in enumerate(doc["sectors"])]
        if len(sectors) != K + 1:
            raise ValueError(f"truncation {K} does not match {len(sectors)} sectors")
        return FockState(grid, sectors)


def save_kernel(path: str, kernel: KernelTensor, grid: RapidityGrid) -> None:
    doc = {
        "kind": "kernel_tensor",
        **_grid_header(grid),
        "m": kernel.m,
        "n": kernel.n,
        "values": kernel.values,
    }
    _require_finite(path, [kernel.values])
    with open(path, "w") as fh:
        _write_json(fh, doc)


def load_kernel(path: str) -> tuple[KernelTensor, RapidityGrid]:
    with _document(path, "kernel_tensor", "kernel file") as doc:
        grid = _grid_from_header(doc)
        m, n = _int_field(doc, "m"), _int_field(doc, "n")
        values = nested_to_complex(doc["values"], (grid.size,) * (m + n))
        return KernelTensor(m, n, values), grid


def _model_from_header(data: dict) -> ScatteringModel:
    scattering = _field(data, "scattering", lambda v: isinstance(v, dict),
                        "a scattering object")
    # a table's [re, im] pairs arrive as an array from the tensor decoder
    scattering = {key: value.tolist() if isinstance(value, np.ndarray) else value
                  for key, value in scattering.items()}
    problems: list[str] = []
    _check_scattering(scattering, problems)
    if problems:
        raise ValueError("; ".join(problems))
    return build_scattering(scattering)


def save_form(path: str, form: QuadraticForm) -> None:
    """Write the dense blocks of a form, with its lattice and scattering model.

    A file holds one operator, so a form with batch axes is refused.
    """
    for key, C in form.orbit_blocks.items():
        if C.ndim != 2:
            raise ValueError(f"{path}: refusing to write a form with batch axes: block "
                             f"{key} has batch shape {C.shape[:-2]}; pick one operator "
                             f"with QuadraticForm.batch")
    _require_finite(path, form.orbit_blocks.values())
    blocks = form.blocks
    doc = {
        "kind": "quadratic_form",
        **_grid_header(form.grid),
        "scattering": scattering_config(form.model),
        "truncation": form.truncation,
        "truncated": form.truncated,
        "blocks": [
            {"rows": l, "cols": k, "values": mat}
            for (l, k), mat in sorted(blocks.items())
        ],
    }
    with open(path, "w") as fh:
        _write_json(fh, doc)


def load_form(path: str) -> QuadraticForm:
    """Read a form file and store its blocks on the orbits of the file's model.

    A block that is not S-symmetric under that model, to within
    ``FORM_SYMMETRY_RTOL`` of its largest entry, is refused.
    """
    with _document(path, "quadratic_form", "quadratic form file") as doc:
        grid = _grid_from_header(doc)
        model = _model_from_header(doc)
        N = grid.size
        K = _int_field(doc, "truncation")
        truncated = (_field(doc, "truncated", lambda v: isinstance(v, bool), "a JSON boolean")
                     if "truncated" in doc else False)
        dense = {}
        for rec in doc["blocks"]:
            l, k = _int_field(rec, "rows"), _int_field(rec, "cols")
            dense[(l, k)] = nested_to_complex(rec["values"], (N**l, N**k))
        form = QuadraticForm.from_dense(model, grid, K, dense, truncated)
    for key, mat in dense.items():
        size = float(np.max(np.abs(mat), initial=0.0))
        err = float(np.max(np.abs(mat - form.block(*key)), initial=0.0))
        if err > FORM_SYMMETRY_RTOL * size:
            raise ValueError(f"{path}: block {key} is not symmetric under its scattering "
                             f"model: it differs from its symmetric part by "
                             f"{err / size:.3e} of its largest entry")
    return form


def _refuse_old_family(path: str) -> None:
    """Refuse a manifest of the old family layout, whose entries name dense kernel files.

    Writing the new manifest over it would leave those files beside it.
    Anything else at ``path``, or nothing, passes.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError):  # no file, or not JSON
        return
    entries = doc.get("entries") if isinstance(doc, dict) else None
    if isinstance(entries, list) and any(isinstance(rec, dict) and "file" in rec
                                         for rec in entries):
        raise ValueError(f"{path} holds a family of the old layout, whose entries name "
                         f"dense kernel files; write the family to another directory")


def save_family(directory: str, family: CoefficientFamily) -> None:
    """Write a family as one manifest holding the orbit matrix of every entry.

    A directory that holds a manifest of the old layout is refused, and
    nothing in it is touched.
    """
    _require_finite(directory, [kernel.values for kernel in family.entries.values()])
    path = os.path.join(directory, "manifest.json")
    _refuse_old_family(path)
    os.makedirs(directory, exist_ok=True)
    manifest = {
        "kind": "coefficient_family",
        **_grid_header(family.grid),
        "scattering": scattering_config(family.model),
        "truncation": family.truncation,
        "entries": [{"m": m, "n": n, "values": kernel.values}
                    for (m, n), kernel in sorted(family.entries.items())],
    }
    with open(path, "w") as fh:
        _write_json(fh, manifest)


def load_family(directory: str) -> CoefficientFamily:
    """Read a family manifest, each entry's orbit matrix into an ``OrbitKernel``.

    An entry above the manifest's truncation, an entry listed twice, an
    orbit matrix of the wrong shape and the entries of an old family, which
    name dense kernel files, are refused.
    """
    path = os.path.join(directory, "manifest.json")
    with _document(path, "coefficient_family", "coefficient family manifest") as manifest:
        grid = _grid_from_header(manifest)
        model = _model_from_header(manifest)
        K = _int_field(manifest, "truncation")
        family = CoefficientFamily(model, grid, K)
        for rec in manifest["entries"]:
            if "file" in rec:
                raise TypeError("entries name dense kernel files, an old family layout; "
                                "expand the form again")
            m, n = _int_field(rec, "m"), _int_field(rec, "n")
            if max(m, n) > K:
                raise ValueError(f"entry {(m, n)} lies above the truncation {K}")
            if (m, n) in family.entries:
                raise ValueError(f"entry {(m, n)} is listed twice")
            shape = (orbit_dimension(model, grid.size, m), orbit_dimension(model, grid.size, n))
            family.set_entry(OrbitKernel(m, n, nested_to_complex(rec["values"], shape)))
    return family
