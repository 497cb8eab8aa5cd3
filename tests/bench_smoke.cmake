# The bench gate: the perf-critical bench binaries must run end to end with
# their built-in gates, and tools/bench_diff.py diffs their reports against
# the committed baselines in bench/baselines (a >20% drop in any rate-like
# metric fails).
#   - engine_scaling: diagnose_all at 4 threads; SkipWithError (a failed
#     run) unless serial and parallel, cached and uncached verdicts are
#     byte-identical;
#   - join_cache: exits 1 unless the cached run is faster and byte-identical;
#   - storage_scaling: identity and cold-open gates;
#   - streaming_rca: a persisted streaming replay;
#   - service_load: >= 1k keep-alive connections, ingest-isolation and
#     identity gates.
#   cmake -DENGINE_SCALING=... -DJOIN_CACHE=... -DSTORAGE_SCALING=...
#         -DSTREAMING_RCA=... -DSERVICE_LOAD=... -DPYTHON=path/to/python3
#         -DSOURCE=repo/root -DWORK=scratch/dir -P bench_smoke.cmake
# WORK is emptied first; the BENCH_*.json reports are left in it.
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# Runs ARGN in WORK and stops the gate unless it exits 0.
function(run_step)
  string(JOIN " " command ${ARGN})
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY "${WORK}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${command}: exit status ${rc}\n${out}\n${err}")
  endif()
  message(STATUS "${command}\n${out}")
endfunction()

run_step("${ENGINE_SCALING}" --threads 4 --benchmark_filter=BM_DiagnoseAll
         --benchmark_out=BENCH_engine_scaling.json
         --benchmark_out_format=json
         --metrics-out BENCH_engine_scaling_metrics.json)
# google-benchmark exits 0 even when a run ends in SkipWithError; the
# report names the failure.
file(READ "${WORK}/BENCH_engine_scaling.json" report)
if(report MATCHES "\"error_occurred\": true")
  message(FATAL_ERROR "engine_scaling: a gate failed; see "
                      "${WORK}/BENCH_engine_scaling.json")
endif()

run_step("${JOIN_CACHE}" --out BENCH_join_cache.json
         --metrics-out BENCH_join_cache_metrics.json)
run_step("${STORAGE_SCALING}" --out BENCH_storage.json)
run_step("${STREAMING_RCA}" --metrics-out BENCH_streaming_rca_metrics.json)
run_step("${SERVICE_LOAD}" --out BENCH_service.json)

run_step("${PYTHON}" "${SOURCE}/tools/bench_diff.py"
         --baseline-dir "${SOURCE}/bench/baselines" --out BENCH_merged.json
         BENCH_storage.json BENCH_join_cache.json BENCH_service.json)
