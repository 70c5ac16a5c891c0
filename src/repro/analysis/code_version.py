"""Content-addressed code versions for the experiment cache.

Cache entries written by :class:`~repro.analysis.engine.ExperimentEngine` are
keyed by a *code version* so results computed by stale solver code are never
replayed.  Historically that tag was a hand-bumped string constant; this
module derives it from SHA-256 hashes of the solver source files instead, so
editing a solver automatically invalidates exactly the cache entries that
depend on it.

An experiment whose trial function carries a ``@register_trial(name)``
decorator in the source tree hashes the trial's derived module closure
(:func:`repro.lint.imports.trial_closures`): every module its body can reach
through imports, function-local ones included, plus their ancestor package
``__init__`` files.  Nothing is declared by hand, so no dependency can be
forgotten.  Trials registered at runtime (no decorator in the tree) and
``experiment=None`` hash *every* module of the package, which can only
over-invalidate, never replay stale results.
"""

from __future__ import annotations

import hashlib
import importlib.util
import subprocess
from functools import lru_cache
from pathlib import Path

__all__ = [
    "DEFAULT_PACKAGE",
    "module_files",
    "code_version_for",
    "git_describe",
]


def git_describe(start: Path | None = None) -> str | None:
    """``git describe --always --dirty`` of the checkout holding this file.

    The human-readable companion to the content-hash tags: baselines and
    trial-store runs record it at *production* time (see
    :func:`repro.analysis.bench.engine_provenance`) so results can be
    attributed to commits.  Returns ``None`` when git is unavailable or the
    package is not inside a work tree (e.g. installed site-packages), so
    provenance degrades gracefully.
    """
    cwd = Path(start) if start is not None else Path(__file__).resolve().parent
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    described = proc.stdout.strip()
    return described or None


#: The package whose source files code versions hash.
DEFAULT_PACKAGE = "repro"


def module_files(name: str) -> list[Path]:
    """The source files behind module or package *name*.

    A package name expands to every ``*.py`` file under it (recursively),
    sorted, so files added or split later are covered too.
    """
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"cannot locate module {name!r} to hash it")
    if spec.submodule_search_locations:
        files: list[Path] = []
        for location in spec.submodule_search_locations:
            files.extend(Path(location).rglob("*.py"))
        return sorted(set(files))
    if spec.origin is None or not Path(spec.origin).exists():
        raise ModuleNotFoundError(f"module {name!r} has no source file to hash")
    return [Path(spec.origin)]


@lru_cache(maxsize=4096)
def _file_digest(path: str, mtime_ns: int, size: int) -> str:
    """SHA-256 of one source file, memoised on its (path, mtime, size) stamp.

    The stat stamp is part of the key so an edited file is re-hashed on the
    next call instead of replaying a stale digest.
    """
    del mtime_ns, size  # cache-key components only
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@lru_cache(maxsize=1)
def _trial_files(
    package_dir: Path, stamps: tuple[tuple[str, int, int], ...]
) -> dict[str, frozenset[str]]:
    """Trial name -> the source files of its derived module closure.

    *stamps* holds ``(path, mtime_ns, size)`` for every file of the package,
    so the closures are derived once per process and again only when a file
    changes (as with :func:`_file_digest`).  The AST machinery is imported
    here rather than at module level so ``import repro.cli`` never loads
    :mod:`repro.lint`.
    """
    from repro.lint.imports import load_import_tables, trial_closures
    from repro.lint.walker import module_name_for

    closures = trial_closures(load_import_tables(package_dir, DEFAULT_PACKAGE))
    paths = {
        module_name_for(Path(path), package_dir, DEFAULT_PACKAGE): path
        for path, _, _ in stamps
    }
    return {
        trial: frozenset(paths[module] for module in closure)
        for trial, closure in closures.items()
    }


def code_version_for(experiment: str | None = None) -> str:
    """Derive the content-addressed code version of *experiment*.

    Combines the SHA-256 digest of every source file in the experiment's
    derived trial closure (default: all of :data:`DEFAULT_PACKAGE`) into one
    stable hex tag.  The tag changes whenever any of those files changes, so
    cache entries written under an older tag are recognisably stale (see
    :func:`repro.analysis.engine.cache_gc`).
    """
    files = module_files(DEFAULT_PACKAGE)
    stats = {path: path.stat() for path in files}
    if experiment is not None:
        spec = importlib.util.find_spec(DEFAULT_PACKAGE)
        package_dir = Path(spec.submodule_search_locations[0])
        stamps = tuple(
            (str(path), stat.st_mtime_ns, stat.st_size) for path, stat in stats.items()
        )
        closure = _trial_files(package_dir, stamps).get(experiment)
        if closure is not None:
            files = [path for path in files if str(path) in closure]
    combined = hashlib.sha256()
    for path in files:
        stat = stats[path]
        combined.update(path.name.encode())
        combined.update(_file_digest(str(path), stat.st_mtime_ns, stat.st_size).encode())
    return combined.hexdigest()[:16]
