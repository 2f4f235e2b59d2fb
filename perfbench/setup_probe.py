"""Time metrosim's set-up in a fresh interpreter.

Set-up is everything before the first simulated month: a cold import of
``metrosim.cli``, config parsing and region resolution, and for a
single-scenario run also ``instantiate_world``. Prints one JSON line with
the import time and a ``perf_counter`` reading at the end of set-up; that
clock is system-wide, so the caller subtracts its own reading taken just
before it started this interpreter and thereby counts interpreter start-up.

Usage: setup_probe.py CONFIG SEED INSTANTIATE(0|1)
"""
import json
import sys
import time

t0 = time.perf_counter()
import metrosim.cli  # noqa: E402,F401  (the import being timed)

t_import = time.perf_counter()
from metrosim.config import parse_config  # noqa: E402
from metrosim.rng import RngStreams  # noqa: E402
from metrosim.worldgen import default_apc_batch, instantiate_world, load_region  # noqa: E402

config_path, seed, instantiate = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
cfg = parse_config(config_path)
if cfg.region.mode == "file":
    regions = [load_region(cfg.region.path)]
else:
    regions = default_apc_batch()
if instantiate:
    instantiate_world(regions[0], cfg.world, RngStreams(seed).worldgen)
print(json.dumps({"import_s": t_import - t0, "end": time.perf_counter()}))
