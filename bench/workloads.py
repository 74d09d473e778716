"""Workload registry: name -> module with build/write_inputs/commands/
make_responder/items_per_pass/check."""

import wl_loop
import wl_synth
import wl_verify

BY_NAME = {wl.NAME: wl for wl in (wl_verify, wl_loop, wl_synth)}
