"""Two-zone indexed type theory: syntax, parser, checker, equality, elaboration."""

from .syntax import *  # noqa: F401,F403
from .parser import parse_file, parse_term, parse_type, ParseError  # noqa: F401
from .checker import (  # noqa: F401
    CheckError,
    Checker,
    Telescope,
    check_source,
)
from .equality import equal_terms, equal_types, normalize  # noqa: F401
from .elaborate import (  # noqa: F401
    Elaborator,
    ModelEnv,
    SemCtx,
    elaborate_term,
    elaborate_type,
)
