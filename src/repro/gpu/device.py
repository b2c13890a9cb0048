"""Device descriptions and launch geometry.

:data:`TESLA_V100` transcribes Table 2 of the paper. The persistent-thread
model (Section 4.1) launches only as many blocks as can be simultaneously
resident; :func:`launch_geometry` computes residency and the resulting
grid-stride work assignment. :class:`Grid` is the one value that selects
the modeled plan of :func:`repro.core.engine.run_speculative`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_in_set

__all__ = [
    "DeviceSpec",
    "GTX_1080TI",
    "Grid",
    "LaunchGeometry",
    "TESLA_V100",
    "launch_geometry",
]


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of a GPU (the fields the cost model needs)."""

    name: str
    num_sms: int
    cuda_cores: int
    clock_ghz: float
    warp_size: int
    max_threads_per_block: int
    max_threads_per_sm: int
    registers_per_thread_max: int
    register_file_per_sm_bytes: int
    shared_mem_per_sm_bytes: int
    l2_bytes: int
    mem_bandwidth_gbs: float
    mem_bus_bits: int

    @property
    def max_resident_blocks(self) -> int:
        """Upper bound on concurrently resident blocks (1 block/SM model).

        The paper launches at most ``num_sms`` (80) thread blocks under the
        persistent-thread model; we follow the same convention.
        """
        return self.num_sms

    def validate_block(self, threads_per_block: int) -> None:
        """Raise if a block shape is not launchable on this device."""
        if threads_per_block < 1 or threads_per_block > self.max_threads_per_block:
            raise ValueError(
                f"threads_per_block must be in [1, {self.max_threads_per_block}], "
                f"got {threads_per_block}"
            )
        if threads_per_block % self.warp_size:
            raise ValueError(
                f"threads_per_block must be a multiple of the warp size "
                f"({self.warp_size}), got {threads_per_block}"
            )


TESLA_V100 = DeviceSpec(
    name="Tesla V100",
    num_sms=80,
    cuda_cores=5120,
    clock_ghz=1.38,
    warp_size=32,
    max_threads_per_block=1024,
    max_threads_per_sm=2048,
    registers_per_thread_max=255,
    register_file_per_sm_bytes=65536 * 4,  # 64K 32-bit registers per SM
    shared_mem_per_sm_bytes=96 * 1024,
    l2_bytes=6 * 1024 * 1024,
    mem_bandwidth_gbs=900.0,
    mem_bus_bits=4096,
)

GTX_1080TI = DeviceSpec(
    name="GTX 1080 Ti",
    num_sms=28,
    cuda_cores=3584,
    clock_ghz=1.58,
    warp_size=32,
    max_threads_per_block=1024,
    max_threads_per_sm=2048,
    registers_per_thread_max=255,
    register_file_per_sm_bytes=65536 * 4,
    shared_mem_per_sm_bytes=96 * 1024,
    l2_bytes=int(2.75 * 1024 * 1024),
    mem_bandwidth_gbs=484.0,
    mem_bus_bits=352,
)


@dataclass(frozen=True)
class LaunchGeometry:
    """Resolved launch shape under the persistent-thread model."""

    num_blocks: int
    threads_per_block: int
    resident_blocks: int
    total_threads: int
    warps_per_block: int

    @property
    def oversubscribed(self) -> bool:
        """True when more blocks were requested than can be resident."""
        return self.num_blocks > self.resident_blocks


def launch_geometry(
    device: DeviceSpec, num_blocks: int, threads_per_block: int
) -> LaunchGeometry:
    """Validate and resolve a launch configuration on ``device``."""
    if num_blocks < 1:
        raise ValueError(f"num_blocks must be >= 1, got {num_blocks}")
    device.validate_block(threads_per_block)
    resident = min(num_blocks, device.max_resident_blocks)
    return LaunchGeometry(
        num_blocks=num_blocks,
        threads_per_block=threads_per_block,
        resident_blocks=resident,
        total_threads=num_blocks * threads_per_block,
        warps_per_block=threads_per_block // device.warp_size,
    )


@dataclass(frozen=True)
class Grid:
    """The modeled GPU launch a :func:`repro.core.engine.run_speculative`
    call runs on: ``grid=Grid()`` selects the modeled plan, ``grid=None``
    (the default) the CPU plan.

    The defaults are the paper's V100 setup (Sections 4.1-4.2): 80 blocks
    of 256 persistent threads, one chunk per thread, over the coalesced
    (``"transformed"``) layout, without the hot-state cache. A modeled run
    steps with the vectorized lockstep kernel unless ``backend``/``kernel``
    say otherwise, and is always priced into modeled time.

    Attributes
    ----------
    num_blocks, threads_per_block:
        Launch geometry, validated against ``device``.
    device:
        The modeled GPU (pricing and launch limits).
    layout:
        ``"transformed"`` (coalesced, Section 4.1) or ``"natural"``.
    cache_table:
        Enable the hot-state shared-memory cache (Section 4.2).
    cache_budget_bytes:
        The cache's shared-memory budget; None is half of the device's
        shared memory per SM.
    cpu_transition_ns:
        CPU baseline cost per input item for the modeled speedup; None is
        the calibrated constant.
    """

    num_blocks: int = 80
    threads_per_block: int = 256
    device: DeviceSpec = TESLA_V100
    layout: str = "transformed"
    cache_table: bool = False
    cache_budget_bytes: int | None = None
    cpu_transition_ns: float | None = None

    def __post_init__(self) -> None:
        check_in_set("layout", self.layout, ("transformed", "natural"))
        launch_geometry(self.device, self.num_blocks, self.threads_per_block)

    @property
    def num_threads(self) -> int:
        """Total simulated threads (= chunks of the launch)."""
        return self.num_blocks * self.threads_per_block
