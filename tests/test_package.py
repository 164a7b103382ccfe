import morsegauge


def test_export_list_resolves():
    missing = [name for name in morsegauge.__all__
               if not hasattr(morsegauge, name)]
    assert missing == []
    assert len(set(morsegauge.__all__)) == len(morsegauge.__all__)
