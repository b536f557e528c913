"""Hardware models: GPU, host memory, PCIe interconnect."""

from .._lazy import lazy_exports

#: public name -> defining submodule
_EXPORTS = {
    "CDMA_ENGINE": "compression",
    "CompressionModel": "compression",
    "PAPER_SYSTEM": "config",
    "SystemConfig": "config",
    "GPU_PRESETS": "gpu",
    "GPUSpec": "gpu",
    "HBM_CLASS": "gpu",
    "JETSON_CLASS": "gpu",
    "TITAN_X": "gpu",
    "gpu_preset": "gpu",
    "oracular": "gpu",
    "HostSpec": "host",
    "I7_5930K": "host",
    "ClusterTopology": "interconnects",
    "NVLINK_1": "interconnects",
    "NVLINK_2": "interconnects",
    "PCIE_GEN4": "interconnects",
    "TOPOLOGY_PRESETS": "interconnects",
    "available_topologies": "interconnects",
    "interconnect_sweep": "interconnects",
    "make_topology": "interconnects",
    "nvlink_mesh": "interconnects",
    "nvlink_ring": "interconnects",
    "pcie_switch_tree": "interconnects",
    "system_with_link": "interconnects",
    "PCIE_GEN3": "pcie",
    "PCIeLink": "pcie",
    "TransferMode": "pcie",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
