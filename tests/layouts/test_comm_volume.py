"""Figure 7's context: the communication volume of each QR layout."""

import pytest


class TestCommunicationVolume:
    def test_column_cyclic_moves_least_data(self):
        from repro.layouts import compare_volumes

        for n in (16, 56, 96):
            v = compare_volumes(n)
            assert (
                v["column_cyclic"].total_words
                < v["cyclic2d"].total_words
                < v["row_cyclic"].total_words
            )

    def test_volume_does_not_decide_performance(self):
        # The classic tension: 1D column communicates least but loses on
        # time (serialized column work) -- volume is necessary context,
        # not the decision metric.
        from repro.layouts import compare_layouts, compare_volumes
        from repro.model import ModelParameters

        params = ModelParameters.paper_table_iv()
        n = 56
        volumes = compare_volumes(n)
        times = compare_layouts(params, n)
        assert volumes["column_cyclic"].total_words < volumes["cyclic2d"].total_words
        assert times["cyclic2d"].gflops > times["column_cyclic"].gflops

    def test_row_cyclic_dominated_by_reductions(self):
        from repro.layouts import qr_communication_volume

        v = qr_communication_volume("row_cyclic", 56)
        assert v.reduction_words > v.broadcast_words

    def test_words_per_flop_shrinks_with_n(self):
        from repro.layouts import qr_communication_volume

        a = qr_communication_volume("cyclic2d", 16).words_per_flop
        b = qr_communication_volume("cyclic2d", 96).words_per_flop
        assert b < a

    def test_validation(self):
        from repro.layouts import qr_communication_volume

        with pytest.raises(ValueError):
            qr_communication_volume("cyclic2d", 1)
        with pytest.raises(ValueError):
            qr_communication_volume("cyclic2d", 16, threads=48)
        with pytest.raises(ValueError):
            qr_communication_volume("hilbert", 16)
