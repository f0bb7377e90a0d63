"""mtime+size-keyed AST parse cache shared by every analysis engine.

Parsing and indexing are the dominant cost of an analysis run
(continuum-lint and the flow analyses both read every module under
``src/repro``, and CI plus pre-commit run them back to back). Each
parse also builds the module's :class:`~repro.analysis.index.ModuleIndex`
in one traversal, so lint and flow share both the tree and the index.
The cache keys each file on ``(path, mtime_ns, size)`` so an unchanged
file is parsed and indexed exactly once per process — and, when a cache
file is configured, once per *machine*: the CLI persists the cache with
:mod:`pickle` (AST nodes and the index that points into them pickle
together) and validates every entry against the file's current stat on
reuse, so a stale entry can never survive an edit.

The cache is an optimization only: a missing, unreadable or corrupt
cache file silently degrades to parsing from scratch.
"""

from __future__ import annotations

import ast
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis.index import ModuleIndex, build_index

#: Bump when ParsedFile or the ModuleIndex changes shape; mismatched
#: caches are dropped. 2: ParsedFile carries the ModuleIndex.
CACHE_VERSION = 2


@dataclass
class ParsedFile:
    """One parse result. ``tree`` and ``index`` are None when the file
    failed to parse (``error`` then carries the SyntaxError message and
    line)."""

    source: str
    lines: list[str]
    tree: ast.Module | None
    error: tuple[str, int] | None = None  # (message, lineno)
    index: ModuleIndex | None = None


def _stat_key(path: Path) -> tuple[int, int] | None:
    try:
        stat = path.stat()
    except OSError:
        return None
    return (stat.st_mtime_ns, stat.st_size)


class ParseCache:
    """In-process parse cache with optional on-disk persistence."""

    def __init__(self):
        #: resolved path -> ((mtime_ns, size), ParsedFile)
        self._entries: dict[str, tuple[tuple[int, int], ParsedFile]] = {}
        self.hits = 0
        self.misses = 0

    def parse(self, path: str | Path) -> ParsedFile:
        """Parse *path*, reusing the cached AST when stat is unchanged."""
        path = Path(path)
        key = str(path.resolve())
        stat_key = _stat_key(path)
        if stat_key is not None:
            cached = self._entries.get(key)
            if cached is not None and cached[0] == stat_key:
                self.hits += 1
                return cached[1]
        self.misses += 1
        try:
            source = path.read_text()
        except OSError:
            return ParsedFile(source="", lines=[], tree=None,
                              error=("unreadable file", 1))
        parsed = parse_source(source)
        if stat_key is not None:
            self._entries[key] = (stat_key, parsed)
        return parsed

    def __len__(self) -> int:
        return len(self._entries)

    # -- persistence --------------------------------------------------------

    @classmethod
    def load(cls, cache_path: str | Path) -> "ParseCache":
        """Restore a persisted cache; any failure yields an empty one."""
        cache = cls()
        try:
            payload = pickle.loads(Path(cache_path).read_bytes())
            if payload.get("version") == CACHE_VERSION:
                cache._entries = payload["entries"]
        except (OSError, pickle.PickleError, AttributeError, EOFError,
                KeyError, TypeError, ValueError, ImportError):
            pass
        return cache

    def save(self, cache_path: str | Path) -> bool:
        """Persist the cache; returns False (and stays silent) on I/O
        failure — the cache must never break an analysis run."""
        payload = {"version": CACHE_VERSION, "entries": self._entries}
        try:
            Path(cache_path).write_bytes(pickle.dumps(payload))
        except (OSError, pickle.PickleError):
            return False
        return True


def parse_source(source: str) -> ParsedFile:
    """Parse a source string into a ParsedFile (no caching)."""
    lines = source.splitlines()
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return ParsedFile(source=source, lines=lines, tree=None,
                          error=(exc.msg or "invalid syntax",
                                 exc.lineno or 1))
    return ParsedFile(source=source, lines=lines, tree=tree,
                      index=build_index(tree, lines))


def python_files(root: Path, paths: Iterable[str | Path]
                 ) -> Iterator[tuple[Path, str]]:
    """``(file, path relative to root)`` for every ``*.py`` file named by
    *paths*; directories are searched recursively in sorted order."""
    for raw in paths:
        target = root / raw  # an absolute *raw* replaces *root*
        if target.is_dir():
            files = sorted(target.rglob("*.py"))
        else:
            files = [target] if target.suffix == ".py" else []
        for file_path in files:
            try:
                rel = str(file_path.relative_to(root))
            except ValueError:
                rel = str(file_path)
            yield file_path, rel
