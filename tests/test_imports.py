"""Import-time dependencies, checked in fresh interpreters."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import nearcentral

PACKAGE_DIR = Path(nearcentral.__file__).parent


def _fresh(code: str) -> object:
    # run `code` in a new interpreter that finds the package under test first
    path = os.pathsep.join(
        filter(None, [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
        timeout=60,
    )
    return json.loads(done.stdout)


def test_package_imports_only_the_standard_library() -> None:
    loaded = _fresh(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import nearcentral\n"
        "print(json.dumps([nearcentral.__file__, sorted(set(sys.modules) - before)]))\n"
    )
    origin, modules = loaded
    assert Path(origin).parent == PACKAGE_DIR
    outside = {
        top
        for top in (name.split(".")[0] for name in modules)
        if top != "nearcentral" and top not in sys.stdlib_module_names
    }
    assert not outside


def test_permutations_sit_below_genchar_and_oracle() -> None:
    # a bare package object keeps nearcentral/__init__ from importing the rest
    loaded = _fresh(
        "import json, sys, types\n"
        "pkg = types.ModuleType('nearcentral')\n"
        f"pkg.__path__ = [{str(PACKAGE_DIR)!r}]\n"
        "sys.modules['nearcentral'] = pkg\n"
        "import nearcentral.permutations\n"
        "print(json.dumps([m for m in sys.modules if m.startswith('nearcentral.')]))\n"
    )
    assert "nearcentral.permutations" in loaded
    assert "nearcentral.genchar" not in loaded
    assert "nearcentral.oracle" not in loaded
