"""Names the CLI needs before it runs a command, in one stdlib-only module.

The parser reads its `route` choices from the routing enums, and `cli_main`
maps the error classes below to exit codes. Every enum a setting takes lives
here too, so the config loader (`configfile`) needs nothing but this module
and the stdlib. Keeping them here, away from numpy, `dataclasses` and the
subsystems, lets a command import only the modules it runs. `routing`,
`simulate`, `fusion`, `configfile`, `vindex` and `layoutlint` import these
names back, so `devmux.routing.Complexity is devmux.base.Complexity` and so on.
"""

from __future__ import annotations

from enum import Enum


class TaskKind(str, Enum):
    SYNTAX_FIX = "syntax_fix"
    COMPLETION = "completion"
    REFACTOR = "refactor"
    CRASH_ANALYSIS = "crash_analysis"


class Complexity(str, Enum):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"


class DeviceClass(str, Enum):
    CPU_ONLY = "cpu"
    GPU = "gpu"


class Battery(str, Enum):
    LOW = "low"
    OK = "ok"


class NetworkState(str, Enum):
    GOOD = "good"
    DEGRADED = "degraded"
    OFFLINE = "offline"


class Action(str, Enum):
    EDGE = "edge"
    CLOUD = "cloud"


class PolicyKind(str, Enum):
    ALL_CLOUD = "all_cloud"
    ALL_EDGE = "all_edge"
    THRESHOLD = "threshold"
    MDP = "mdp"


class ContextSource(str, Enum):
    IDE_INTERACTION = "ide_interaction"
    CODE_CONTEXT = "code_context"
    RUNTIME_LOG = "runtime_log"


class ConfigError(Exception):
    pass


class IndexFileError(Exception):
    """Base class for persistence failures."""


class LayoutParseError(Exception):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        location = f" at line {line}, column {col}" if line is not None else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.col = col
