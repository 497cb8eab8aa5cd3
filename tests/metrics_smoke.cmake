# The metrics gate, end to end through the grca CLI: `grca version` must
# run, and `grca metrics` over a simulated BGP corpus must print Prometheus
# text with per-source feed counters and stage-latency histogram buckets,
# and JSON that parses.
#   cmake -DGRCA=path/to/grca -DPYTHON=path/to/python3 -DWORK=scratch/dir
#         -P metrics_smoke.cmake
# WORK is emptied first and left behind for inspection.
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# Runs `grca ARGN` in WORK and stops the gate unless it exits 0; the
# standard output goes to OUT_VAR.
function(run_grca out_var)
  execute_process(COMMAND "${GRCA}" ${ARGN} WORKING_DIRECTORY "${WORK}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "grca ${ARGN}: exit status ${rc}\n${out}\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

run_grca(out version)
run_grca(out simulate --study bgp --out smoke-data --days 3 --symptoms 100)

run_grca(prom metrics --study bgp --data smoke-data --threads 2)
file(WRITE "${WORK}/BENCH_grca_metrics.prom" "${prom}")
foreach(needle "grca_feed_records_total{source=" "grca_stage_seconds_bucket")
  string(FIND "${prom}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "grca metrics: no '${needle}' line; see "
                        "${WORK}/BENCH_grca_metrics.prom")
  endif()
endforeach()

run_grca(json metrics --study bgp --data smoke-data --format json)
file(WRITE "${WORK}/grca_metrics.json" "${json}")
execute_process(COMMAND "${PYTHON}" -m json.tool "${WORK}/grca_metrics.json"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "grca metrics --format json does not parse: ${err}")
endif()
