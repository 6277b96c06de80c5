"""Each demo prints exactly what it printed when its digest was recorded.

The demos are deterministic, so the SHA-256 of a demo's stdout pins every
number it shows.  A change that alters a digest changes what a reader of
the demo sees; record the new digest only when that change is intended.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DIGESTS = {
    "01_table_of_marks.py": "87436158df3c6bc0aeadf207b4fef27059e3eae054096830b57a0390051a207f",
    "02_orbit_census.py": "f5569f9546184f61af1182f6f1a9c784d6059766114a733e0e7cc324d119d691",
    "03_blow_up.py": "22abe1c92856bf6cedd411864c59efd43806696b77631149e49ea1a7a04b26ff",
    "04_second_cohomology.py": "d7ee8fbf11de6956da0a4ade6a7790cd91e9ce803454a9100c5f2fc352d6e45f",
    "05_character_tables.py": "7ea221facadbb36451b3a3a4e2c39b1dce2b35c64731454b53277ee7fbef507f",
    "06_cyclotomic_numbers.py": "b37bb32f290e777770310e05fe9f1ae1c3cacb2065d72e3882f58fa89ff7f83e",
    "07_straight_line_programs.py": "65b82868705ac79ea20f586b2225b6990e76a0f8467aef95eaf93ed9911ee1c9",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_stdout_is_unchanged(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT, env=env,
                         capture_output=True, timeout=120)
    assert run.returncode == 0, run.stderr.decode()
    assert hashlib.sha256(run.stdout).hexdigest() == DIGESTS[name]
