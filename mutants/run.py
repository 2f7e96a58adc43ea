"""Run the mutant census: apply each catalogued mutant to an export of HEAD
and run only that mutant's killers there.

    python mutants/run.py

``git archive HEAD`` is extracted to a temporary directory, and the census
reads that export's ``mutants/catalogue.py``.  Every killer first runs on
the unmutated export, where each must pass.  Then, one mutant at a time,
its fragment is replaced in the export's file, ``python -m pytest`` runs
its killers with the export's ``src`` on ``PYTHONPATH``, and the file is
put back.  A mutant is killed when at least one killer fails; the line
names any killer that passed.  No bytecode is written, so a restored file
is never read from a stale cache.  Exits 0 when every mutant is killed, 1
when one survives and 2 when the census cannot run.  Not part of tier-1:
each mutant costs a pytest start-up and its killers' run.
"""

from __future__ import annotations

import importlib.util
import io
import os
import pathlib
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]


def failed_killers(tree, killers):
    """The killers that fail in ``tree``: a killer fails when any of its
    parametrized cases fails or errors.  Raises ``RuntimeError`` when pytest
    cannot run them (a usage error, say, or no test collected)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *killers],
        cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"pytest exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    failed = {line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))}
    return [k for k in killers if any(f == k or f.startswith(k + "[") for f in failed)]


def census(tree):
    """Print killed or survived per mutant of ``tree``'s catalogue; returns
    the exit status."""
    spec = importlib.util.spec_from_file_location("catalogue", tree / "mutants" / "catalogue.py")
    catalogue = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(catalogue)
    broken = failed_killers(tree, sorted({k for m in catalogue.MUTANTS for k in m.killers}))
    if broken:
        print(f"killers fail on the unmutated tree: {broken}", file=sys.stderr)
        return 2
    survived = 0
    for mutant in catalogue.MUTANTS:
        path = tree / mutant.file
        source = path.read_text()
        if source.count(mutant.fragment) != 1:
            print(f"{mutant.name}: fragment does not occur once in {mutant.file}",
                  file=sys.stderr)
            return 2
        path.write_text(source.replace(mutant.fragment, mutant.replacement))
        try:
            failed = failed_killers(tree, list(mutant.killers))
        finally:
            path.write_text(source)
        passed = [k for k in mutant.killers if k not in failed]
        survived += not failed
        note = f"  (passed: {', '.join(passed)})" if failed and passed else ""
        print(f"{mutant.name:<4} {'killed' if failed else 'survived'}{note}", flush=True)
    return 1 if survived else 0


def main():
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "HEAD"],
                         capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = pathlib.Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
            archive.extractall(tree, filter="data")
        try:
            return census(tree)
        except RuntimeError as e:
            print(e, file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
