"""ribbonry: exact counting, enumeration, and uniform sampling of ribbon tilings.

`import ribbonry` loads no submodule.  Each public name, and each submodule
(`ribbonry.sheffield`, ...), is imported on first access through the module
`__getattr__` (PEP 562), so a process pays only for the modules it touches.
`__all__`, `dir(ribbonry)` and `from ribbonry import *` list every public
name as before; the star import loads every module that defines one.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

#: The submodule that defines each public name.
_SOURCES = {
    "region": (
        "Cell",
        "Region",
        "RegionParseError",
        "RibbonShape",
        "Tile",
        "Tiling",
        "build_aztec",
        "build_rectangle",
        "build_stair",
        "parse_region",
    ),
    "enumeration": (
        "NotTileableError",
        "count_minimal",
        "count_tilings",
        "count_variable",
        "entropy",
        "enumerate_tilings",
        "is_tileable",
        "log2_big",
        "sample_tiling",
        "tiling_probability",
    ),
    "sheffield": (
        "BijectionReport",
        "ChromaticPoly",
        "GraphInconsistencyError",
        "GrowthReport",
        "SEdge",
        "SGraph",
        "VertexId",
        "acyclic_count_via_chromatic",
        "build_graph",
        "chromatic_polynomial",
        "count_admissible_orientations",
        "graphs_isomorphic",
        "is_acyclic",
        "orientation_from_tiling",
        "tile_levels",
        "to_dot",
        "verify_bijection",
        "verify_growth_bounds",
    ),
    "formulas": (
        "a_sequence",
        "aztec_count",
        "domino_strip_entropy",
        "entropy_bounds",
        "rect_strip_count",
        "stair_count",
        "stair_entropy_limit",
        "stanley_fib_count",
        "stanley_minimal_count",
    ),
    "render": ("tiling_to_ascii", "tiling_to_svg"),
}

_SUBMODULES = (*_SOURCES, "verify", "cli")
_SOURCE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = [*_SOURCE_OF, "__version__"]


def __getattr__(name: str):
    """Import the submodule `name`, or the one that defines it, on first access."""
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    module = _SOURCE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
