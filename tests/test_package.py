import re
from pathlib import Path

import morsegauge


def test_export_list_resolves():
    missing = [name for name in morsegauge.__all__
               if not hasattr(morsegauge, name)]
    assert missing == []
    assert len(set(morsegauge.__all__)) == len(morsegauge.__all__)


def test_exports_are_what_readme_documents():
    # the library example's names and the errors it names, nothing more
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    library = readme[readme.index("## Library use"):]
    undocumented = [name for name in morsegauge.__all__
                    if not re.search(rf"\b{name}\b", library)]
    assert undocumented == []
    public = {name for name, value in vars(morsegauge).items()
              if not name.startswith("_") and not hasattr(value, "__path__")
              and not hasattr(value, "__file__")}
    assert public == set(morsegauge.__all__)
