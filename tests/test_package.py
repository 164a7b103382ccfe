import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

import morsegauge


def test_export_list_resolves():
    missing = [name for name in morsegauge.__all__
               if not hasattr(morsegauge, name)]
    assert missing == []
    assert len(set(morsegauge.__all__)) == len(morsegauge.__all__)


MAPPED_AFTER_FREE = """
import ctypes
import numpy as np
import morsegauge

class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]

libc = ctypes.CDLL(None)
libc.mallinfo2.restype = MallInfo2
np.ones(3 << 20)  # a 24 MB mapping, freed at once
before = libc.mallinfo2().hblkhd
a = np.ones(5 << 19)  # 20 MB, more than the small heap holds
print(libc.mallinfo2().hblkhd - before >= a.nbytes)
"""


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallinfo2"),
                    reason="needs glibc's mallinfo2")
def test_large_blocks_stay_mapped_after_a_large_free():
    """Freeing a large mapped block leaves the mmap threshold where the
    package set it, so the next large array is mapped too instead of
    growing the heap.  A fresh interpreter keeps the heap small."""
    src = str(Path(morsegauge.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", MAPPED_AFTER_FREE],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["True"]
