"""Wrapping the program's public calls from outside.

Nothing under ``src/`` is edited; :mod:`spans` and :mod:`pacing` put
their wrappers around the program's *public* names with
:func:`replace`.  A name is given by where the program defines it
(``"repro.service.store:JournalStore.replay"``,
``"repro.quality.rollout:evaluate_rollout"``), never by which module
happens to import it, so a later change that moves an import does not
break the benchmark.  A name that is no longer there is skipped and
noted: the run goes on, its metrics read 0, and the note is printed
with the results.
"""

from __future__ import annotations

import importlib
import sys
import types

__all__ = ["replace"]

PROGRAM = "repro"
#: Loaded before a module-level function is rebound, so that every
#: module that copied the binding is there to be found.
PACKAGES = ("repro", "repro.analytics")


def replace(path: str, wrap, notes: list[str]) -> bool:
    """Replace the public callable at ``path`` (``"module:name"`` or
    ``"module:Class.method"``) with ``wrap(original)``.

    A module-level function is also rebound in every loaded module of
    the program that imported it by name (``from x import f`` copies
    the binding).  Returns whether the name was found; a missing one
    is appended to ``notes``.
    """
    module_name, _, qualified = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
        *parents, name = qualified.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        original = getattr(owner, name)
    except (ImportError, AttributeError) as error:
        notes.append(f"not wrapped: {path} ({error})")
        return False
    wrapped = wrap(original)
    setattr(owner, name, wrapped)
    if isinstance(owner, types.ModuleType):
        for package in PACKAGES:
            importlib.import_module(package)
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").partition(".")[0] == PROGRAM
                    and getattr(module, name, None) is original):
                setattr(module, name, wrapped)
    return True
