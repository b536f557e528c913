"""Tests for the network zoo against the paper's stated configurations."""

import pytest

from repro.graph import LayerKind, gb
from repro.zoo import (
    PAPER_CONVENTIONAL,
    PAPER_NETWORKS,
    PAPER_VERY_DEEP,
    available,
    build,
    build_alexnet,
    build_deep_vgg,
    build_googlenet,
    build_overfeat,
    build_vgg16,
    recipe,
)


class TestAlexNet:
    def test_conv_and_fc_counts(self):
        net = build_alexnet(128)
        assert len(net.conv_layers) == 5
        assert len(net.layers_of_kind(LayerKind.FC)) == 3

    def test_first_layer_geometry(self):
        net = build_alexnet(128)
        assert net.node("conv_01").output_spec.shape == (128, 96, 55, 55)

    def test_has_lrn_layers(self):
        assert len(build_alexnet(1).layers_of_kind(LayerKind.LRN)) == 2

    def test_fc6_input_is_9216(self):
        net = build_alexnet(2)
        fc = net.node("fc_01")
        assert fc.weight_spec.shape == (4096, 256 * 6 * 6)


class TestOverFeat:
    def test_conv_and_fc_counts(self):
        net = build_overfeat(128)
        assert len(net.conv_layers) == 5
        assert len(net.layers_of_kind(LayerKind.FC)) == 3

    def test_spatial_chain(self):
        net = build_overfeat(4)
        assert net.node("conv_01").output_spec.shape[2:] == (56, 56)
        assert net.node("conv_05").output_spec.shape == (4, 1024, 12, 12)

    def test_weight_heavy_classifier(self):
        # OverFeat's fc_01 sees 1024*6*6 = 36864 features.
        net = build_overfeat(2)
        assert net.node("fc_01").weight_spec.shape == (3072, 36864)


class TestGoogLeNet:
    def test_nine_inception_modules(self):
        net = build_googlenet(32)
        joins = [n for n in net if n.kind is LayerKind.CONCAT]
        assert len(joins) == 9

    def test_57_conv_layers(self):
        # 3 stem convs + 9 modules x 6 convs each.
        assert len(build_googlenet(32).conv_layers) == 57

    def test_inception_fork_refcounts(self):
        net = build_googlenet(32)
        forks = [n for n in net if n.refcount == 4]
        assert len(forks) == 9  # every module input feeds 4 branches

    def test_final_spatial_reduction(self):
        net = build_googlenet(8)
        assert net.node("pool_05").output_spec.shape == (8, 1024, 1, 1)

    def test_single_fc_classifier(self):
        assert len(build_googlenet(8).layers_of_kind(LayerKind.FC)) == 1


class TestVGG16:
    def test_paper_counts_16_convs_3_fcs(self):
        net = build_vgg16(64)
        assert len(net.conv_layers) == 16
        assert len(net.layers_of_kind(LayerKind.FC)) == 3

    def test_homogeneous_3x3_convs(self):
        for node in build_vgg16(2).conv_layers:
            assert node.layer.kernel == 3
            assert node.layer.stride == 1
            assert node.layer.pad == 1

    def test_five_pool_groups(self):
        assert len(build_vgg16(2).layers_of_kind(LayerKind.POOL)) == 5

    def test_channel_progression(self):
        widths = [n.layer.out_channels for n in build_vgg16(2).conv_layers]
        assert widths == [64] * 2 + [128] * 2 + [256] * 4 + [512] * 8

    def test_batch_256_feature_maps_near_28gb_story(self):
        # The paper: VGG-16 (256) needs ~28 GB in total; its feature maps
        # alone are ~16 GB.
        from repro.core import LivenessAnalysis
        net = build_vgg16(256)
        fmaps = LivenessAnalysis(net).total_feature_map_bytes()
        assert 14 <= gb(fmaps) <= 18


class TestDeepVGG:
    def test_depth_rule(self):
        # +100 CONV layers = +20 per group.
        net = build_deep_vgg(116, 32)
        assert len(net.conv_layers) == 116

    @pytest.mark.parametrize("depth", [216, 316, 416])
    def test_all_paper_depths(self, depth):
        assert len(build_deep_vgg(depth, 2).conv_layers) == depth

    def test_group_channel_widths_preserved(self):
        widths = {n.layer.out_channels for n in build_deep_vgg(116, 2).conv_layers}
        assert widths == {64, 128, 256, 512}

    def test_invalid_depth_rejected(self):
        with pytest.raises(ValueError):
            build_deep_vgg(100, 32)
        with pytest.raises(ValueError):
            build_deep_vgg(15, 32)


class TestRegistry:
    def test_available_lists_all_families(self):
        assert len(available()) == 14
        assert "resnet34" in available()
        assert "resnet152" in available()
        assert "rnn" in available()
        assert "lstm" in available()

    def test_build_is_case_and_dash_insensitive(self):
        assert build("VGG-16", 2).name == "VGG-16(2)"
        assert build("vgg_16", 2).name == "VGG-16(2)"

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            build("densenet")

    def test_bad_batch_rejected(self):
        with pytest.raises(ValueError):
            build("alexnet", 0)

    def test_paper_defaults(self):
        assert build("alexnet").batch_size == 128
        assert build("vgg16").batch_size == 64
        assert build("vgg116").batch_size == 32

    def test_recipe_names_what_build_makes(self):
        assert recipe("VGG-16") == ("vgg16", 64)
        assert recipe("alexnet") == recipe("AlexNet", 128) == ("alexnet", 128)
        assert build("vgg_16", 2)._repro_recipe == recipe("vgg_16", 2)
        with pytest.raises(KeyError):
            recipe("densenet")
        with pytest.raises(ValueError):
            recipe("alexnet", 0)

    def test_paper_catalog_has_ten_networks(self):
        assert len(PAPER_NETWORKS) == 10
        assert len(PAPER_CONVENTIONAL) == 6
        assert len(PAPER_VERY_DEEP) == 4
