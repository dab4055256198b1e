"""Kernel: finite simplicial sets, maps, and their categorical toolkit."""

from .simplex import Simplex, nondeg
from .sset import (
    EMPTY,
    FinSSet,
    SMap,
    SSetError,
    Truncated,
    compose,
    constant_map,
    find_isomorphism,
    identity,
)
from .standard import (
    boundary,
    delta_map,
    horn,
    interval_groupoid_skeleton,
    nerve_j,
    sigma_map,
    simplex_space_map,
    std_simplex,
    yoneda,
)
from .homs import check_represented, count_maps, enumerate_maps, enumerate_sections, face_lookup
from .limits import (
    Coproduct,
    Pullback,
    Pushout,
    coproduct,
    initial_map,
    product,
    pullback,
    pushout,
    q_map,
    terminal,
    terminal_map,
)
from .closed import Exponential, Pushforward, exponential, pushforward
from .serialize import load_smap, load_sset, save_smap, save_sset, sset_from_dict, sset_to_dict

__all__ = [name for name in dir() if not name.startswith("_")]
