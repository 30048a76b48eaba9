"""The public Session API: prepared queries, warm state, and serve mode.

>>> from repro.api import Session, EvalOptions
>>> session = Session(db, options=EvalOptions(backend="sqlite"))
>>> prepared = session.prepare("select R.A from R", frontend="sql")
>>> prepared.run()          # warm: cached plan, probe verdict, connection
"""

from .options import EvalOptions
from .session import Explain, Prepared, Session, SessionContext

__all__ = [
    "EvalOptions",
    "Explain",
    "Prepared",
    "Session",
    "SessionContext",
    "serve",
]


def __getattr__(name):
    # ``serve`` pulls in http.server; import it on first touch so the hot
    # evaluate() path does not pay for it.  (importlib, not ``from . import``:
    # the latter re-enters this __getattr__ while the submodule is mid-import.)
    if name == "serve":
        import importlib

        module = importlib.import_module(".serve", __name__)
        globals()["serve"] = module
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
