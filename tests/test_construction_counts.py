"""How many shared objects a seed-42 suite run builds.

Once a check has its input, its universal simplices, tensor squares and
free domains are fixed, so each is built once per check call: the corpus
holds every free domain, check_universal_property keeps one simplex per
corpus domain, check_kernel_rewriting one tensor square per corpus base,
and an algebra computes its generators' normal forms once.  The counts are
deterministic; they are pinned exactly, so a rebuild that grows back shows
here.  The run is in a fresh interpreter with PYTHONHASHSEED=0: the product
tables in nbhd.algebra._TABLES are module-global, and a warm process, or one
whose tables this run fills, would count differently.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src"

COUNT = r"""
import json, sys
from collections import Counter
import nbhd, nbhd.algebra, nbhd.neighbour, nbhd.verify
from nbhd.algebra import FpAlgebra

counts = Counter({"_free_domain outside build_corpus": 0})

def counted(name, function):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        if name == "_free_domain" and sys._getframe(1).f_code.co_name != "build_corpus":
            counts["_free_domain outside build_corpus"] += 1
        return function(*args, **kwargs)
    return wrapper

for name in ("universal_simplex", "tensor"):
    original = getattr(nbhd.algebra, name)
    for module in (nbhd, nbhd.algebra, nbhd.neighbour, nbhd.verify):
        if getattr(module, name, None) is original:
            setattr(module, name, counted(name, original))
nbhd.verify._free_domain = counted("_free_domain", nbhd.verify._free_domain)
FpAlgebra.normal_form = counted("FpAlgebra.normal_form", FpAlgebra.normal_form)
report = nbhd.verify.run_suite(nbhd.verify.SuiteConfig(seed=42))
counts["passed"] = report.passed()
print(json.dumps(counts, sort_keys=True))
"""


def test_a_seed_42_suite_builds_each_shared_object_once():
    path = os.pathsep.join(filter(None, (str(SOURCE), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", COUNT], env=env, capture_output=True, text=True, check=True
    )
    # before: 265 simplices, 401 tensor products (200 of them in the
    # kernel-rewriting check, 200 in rewrite_kernel_element), 347 free
    # domains (332 outside build_corpus) and 5,266 normal forms
    assert json.loads(done.stdout) == {
        "FpAlgebra.normal_form": 2212,
        "_free_domain": 20,
        "_free_domain outside build_corpus": 0,
        "passed": True,
        "tensor": 231,
        "universal_simplex": 79,
    }
