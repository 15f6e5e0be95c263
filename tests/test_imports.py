"""Import weight: the modules a library run loads in a fresh process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import rigidfold

# scipy costs about 0.28 s and 28 MB of RSS to import, numpy.ma 15-35 ms and
# 1.7 MB, hashlib (through OpenSSL) 3.6 MB
HEAVY = ("scipy", "numpy.ma", "hashlib", "_hashlib")

PIPELINE = f"""
import json, math, sys
import rigidfold
p = rigidfold.generate_miura(7, 7)
q = rigidfold.parse_pattern(rigidfold.serialize_pattern(p))
assert rigidfold.validate_pattern(q).ok
rho = rigidfold.flat_state_seed(q, math.radians(1.0))
rigidfold.embed(q, rho)
print(json.dumps(sorted(m for m in {HEAVY!r} if m in sys.modules)))
"""


def test_miura7_pipeline_loads_no_heavy_module():
    """Generate, parse, validate, seed and embed a Miura 7x7 in a fresh
    interpreter; none of ``HEAVY`` is loaded."""
    src = str(Path(rigidfold.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", PIPELINE], env=env,
                         capture_output=True, text=True, check=True)
    assert json.loads(run.stdout) == []
