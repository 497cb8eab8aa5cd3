# The calibrate gate: `grca calibrate --study cdn` must evaluate BGP egress
# changes at the CDN ingress routers whether events are extracted from the
# corpus or read from the store persisted by `simulate --store-out`, and
# both runs must print the same calibrated rule.
#   cmake -DGRCA=path/to/grca -DWORK=scratch/dir -P calibrate_smoke.cmake
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

run_grca(out simulate --study cdn --out cdn-data --days 1 --symptoms 100
         --store-out cdn-store)

set(rule --symptom cdn-rtt-increase --diagnostic bgp-egress-change
         --join router)
run_grca(extracted calibrate --study cdn --data cdn-data ${rule})
run_grca(stored calibrate --study cdn --data cdn-data --store cdn-store
         ${rule})
if(NOT extracted STREQUAL stored)
  message(FATAL_ERROR "calibrate differs with --store:\n"
                      "extracted:\n${extracted}\nstored:\n${stored}")
endif()
string(FIND "${extracted}" "calibrated rule:" at)
if(at EQUAL -1)
  message(FATAL_ERROR "calibrate printed no rule:\n${extracted}")
endif()
