# The on-disk storage gate, end to end through the grca CLI. A sealed store
# and a streaming write-ahead log must both diagnose byte-identically to
# re-extraction from the raw corpus, across a process boundary and through
# compaction, an innet store (whose joins run SPF) must diagnose alike at
# one and four threads, a WAL torn inside its header must stay
# recoverable, a WAL whose full-length header is damaged must be listed
# after every sealed segment and refused, and a corrupted segment must
# fail verification and inspection.
#   cmake -DGRCA=path/to/grca -DPYTHON=path/to/python3 -DWORK=scratch/dir
#         -P storage_smoke.cmake
# WORK is emptied first and left behind for inspection.
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# Runs `grca ARGN` in WORK and stops the gate unless it exits 0; the
# standard output, minus the wall-clock "diagnosis time" line, goes to
# OUT_VAR.
function(run_grca out_var)
  execute_process(COMMAND "${GRCA}" ${ARGN} WORKING_DIRECTORY "${WORK}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "grca ${ARGN}: exit status ${rc}\n${out}\n${err}")
  endif()
  string(REGEX REPLACE "[^\n]*diagnosis time[^\n]*\n?" "" out "${out}")
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# Stops the gate unless diagnosis output TEXT equals the fresh run's; both
# are written to WORK as <name>.txt for a diff.
function(expect_fresh name text)
  file(WRITE "${WORK}/${name}.txt" "${text}")
  if(NOT text STREQUAL fresh)
    message(FATAL_ERROR "${name}: diagnosis differs from re-extraction; "
                        "diff ${WORK}/fresh.txt ${WORK}/${name}.txt")
  endif()
endfunction()

# Simulate and persist the event store.
run_grca(out simulate --study bgp --out store-data --days 3 --symptoms 100
         --store-out store-log)
run_grca(out store verify --dir store-log --deep)
run_grca(out store inspect --dir store-log)

# Reopen and diagnose byte-identically; the span log converts to a valid
# Chrome trace.
run_grca(fresh diagnose --study bgp --data store-data --span-log spans.jsonl)
file(WRITE "${WORK}/fresh.txt" "${fresh}")
run_grca(out diagnose --study bgp --data store-data --store store-log)
expect_fresh(reopened "${out}")
run_grca(out spans --in spans.jsonl --out spans.trace.json)
file(READ "${WORK}/spans.trace.json" trace)
string(JSON kind ERROR_VARIABLE json_error TYPE "${trace}")
if(json_error)
  message(FATAL_ERROR "spans.trace.json is not valid JSON: ${json_error}")
endif()

# Path-dependent diagnosis: innet projects locations onto OSPF paths, so
# its joins run SPF (bgp's make no SPF lookup). The scored breakdown must
# not depend on the thread count or on reading a sealed store.
run_grca(out simulate --study innet --out innet-data --days 3 --symptoms 100
         --store-out innet-log)
run_grca(innet_t1 diagnose --study innet --data innet-data --score
         --threads 1 --metrics-out innet-t1.prom)
file(WRITE "${WORK}/innet_t1.txt" "${innet_t1}")
file(STRINGS "${WORK}/innet-t1.prom" lookups REGEX "^grca_spf_lookups_total ")
if(NOT lookups MATCHES "^grca_spf_lookups_total [1-9]")
  message(FATAL_ERROR "innet diagnosis made no SPF lookup: '${lookups}'")
endif()
run_grca(innet_t4 diagnose --study innet --data innet-data --score
         --threads 4)
run_grca(innet_store_t1 diagnose --study innet --data innet-data --score
         --threads 1 --store innet-log)
run_grca(innet_store_t4 diagnose --study innet --data innet-data --score
         --threads 4 --store innet-log)
foreach(name innet_t4 innet_store_t1 innet_store_t4)
  file(WRITE "${WORK}/${name}.txt" "${${name}}")
  if(NOT "${${name}}" STREQUAL "${innet_t1}")
    message(FATAL_ERROR "${name}: innet diagnosis differs from one thread "
                        "without a store; diff ${WORK}/innet_t1.txt "
                        "${WORK}/${name}.txt")
  endif()
endforeach()

# Streaming write-ahead persistence survives restart and compaction.
run_grca(out replay --study bgp --data store-data --rate max
         --persist stream-log --persist-seal-every 3600)
run_grca(out store verify --dir stream-log)
run_grca(out diagnose --study bgp --data store-data --store stream-log)
expect_fresh(streamed "${out}")

# A WAL torn inside its 24-byte header (a crash while it was being
# rewritten) is a recoverable torn tail for every store command. The
# replay's last seal left the WAL frameless, so nothing is lost.
file(COPY "${WORK}/stream-log/" DESTINATION "${WORK}/torn-log")
execute_process(
  COMMAND "${PYTHON}" -c
          "import sys; open(sys.argv[1], 'r+b').truncate(10)"
          "${WORK}/torn-log/wal.grseg"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "could not truncate ${WORK}/torn-log/wal.grseg")
endif()
run_grca(out store inspect --dir torn-log)
if(NOT out MATCHES "wal.grseg: [^\n]*torn tail 10 bytes")
  message(FATAL_ERROR "store inspect did not report the torn WAL:\n${out}")
endif()
run_grca(out store verify --dir torn-log)
run_grca(out diagnose --study bgp --data store-data --store torn-log)
expect_fresh(torn "${out}")
run_grca(out store compact --dir torn-log)

# A WAL of full length whose header fails its checksum may hide frames:
# `store inspect` lists every sealed segment and then fails naming the WAL,
# verify fails, and compact refuses, leaving every file as it was.
file(COPY "${WORK}/stream-log/" DESTINATION "${WORK}/damaged-log")
execute_process(
  COMMAND "${PYTHON}" -c
          "import sys; p = sys.argv[1]; d = bytearray(open(p, 'rb').read()); d[9] ^= 0x04; open(p, 'wb').write(bytes(d))"
          "${WORK}/damaged-log/wal.grseg"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "could not damage ${WORK}/damaged-log/wal.grseg")
endif()
file(GLOB damaged_files RELATIVE "${WORK}/damaged-log"
     "${WORK}/damaged-log/*")
list(SORT damaged_files)
set(damaged_before "")
foreach(name IN LISTS damaged_files)
  file(SHA256 "${WORK}/damaged-log/${name}" digest)
  string(APPEND damaged_before "${name} ${digest}\n")
endforeach()
execute_process(COMMAND "${GRCA}" store inspect --dir damaged-log
                WORKING_DIRECTORY "${WORK}" RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0 OR NOT err MATCHES "wal.grseg")
  message(FATAL_ERROR "store inspect did not fail on the damaged WAL "
                      "header (exit ${rc}):\n${err}")
endif()
foreach(name IN LISTS damaged_files)
  if(name MATCHES "^seg-" AND NOT out MATCHES "(^|\n)${name}: seq ")
    message(FATAL_ERROR "store inspect did not list ${name}:\n${out}")
  endif()
endforeach()
foreach(action verify compact)
  execute_process(COMMAND "${GRCA}" store ${action} --dir damaged-log
                  WORKING_DIRECTORY "${WORK}" RESULT_VARIABLE rc
                  OUTPUT_QUIET ERROR_QUIET)
  if(rc EQUAL 0)
    message(FATAL_ERROR "store ${action} accepted a damaged WAL header")
  endif()
endforeach()
set(damaged_after "")
foreach(name IN LISTS damaged_files)
  file(SHA256 "${WORK}/damaged-log/${name}" digest)
  string(APPEND damaged_after "${name} ${digest}\n")
endforeach()
file(GLOB damaged_now RELATIVE "${WORK}/damaged-log" "${WORK}/damaged-log/*")
list(SORT damaged_now)
if(NOT damaged_now STREQUAL damaged_files OR
   NOT damaged_after STREQUAL damaged_before)
  message(FATAL_ERROR "a refused store command changed damaged-log")
endif()

run_grca(out store compact --dir stream-log)
run_grca(out store verify --dir stream-log --deep)
run_grca(out diagnose --study bgp --data store-data --store stream-log)
expect_fresh(compacted "${out}")

# A column region that fails its CRC fails inspection as well as
# verification. The first run's region starts right after the 24-byte
# segment header with an 8-byte start value, so byte 28 is inside it.
file(COPY "${WORK}/store-log/" DESTINATION "${WORK}/region-log")
file(GLOB region_segments "${WORK}/region-log/seg-*.grseg")
list(SORT region_segments)
list(GET region_segments 0 region_segment)
get_filename_component(region_name "${region_segment}" NAME)
execute_process(
  COMMAND "${PYTHON}" -c
          "import sys; p = sys.argv[1]; d = bytearray(open(p, 'rb').read()); d[28] ^= 0x01; open(p, 'wb').write(bytes(d))"
          "${region_segment}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "could not corrupt ${region_segment}")
endif()
execute_process(COMMAND "${GRCA}" store inspect --dir region-log
                WORKING_DIRECTORY "${WORK}" RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0 OR
   NOT err MATCHES "${region_name} run '[^']+': column region checksum"
   OR NOT out MATCHES "(^|\n)${region_name}: seq ")
  message(FATAL_ERROR "store inspect did not list ${region_name} and fail "
                      "naming its damaged run (exit ${rc}):\n${out}\n${err}")
endif()
execute_process(COMMAND "${GRCA}" store verify --dir region-log
                WORKING_DIRECTORY "${WORK}" RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "store verify accepted a damaged column region")
endif()

# A corrupted segment fails verification: flip one bit mid-file.
file(GLOB segments "${WORK}/store-log/seg-*.grseg")
list(SORT segments)
list(GET segments 0 segment)
execute_process(
  COMMAND "${PYTHON}" -c
          "import sys; p = sys.argv[1]; d = bytearray(open(p, 'rb').read()); d[len(d) // 2] ^= 0x10; open(p, 'wb').write(bytes(d))"
          "${segment}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "could not corrupt ${segment}")
endif()
execute_process(COMMAND "${GRCA}" store verify --dir store-log
                WORKING_DIRECTORY "${WORK}" RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "store verify accepted a corrupt segment ${segment}")
endif()

