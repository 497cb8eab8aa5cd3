# The follow-mode service gate, end to end through the grca CLI: a corpus
# streamed through `grca serve --follow` and then left silent for 60 ticks
# must fire the feed-silence alarms, and the injected missing-data evidence
# must reach the diagnosis breakdown.
#   cmake -DGRCA=path/to/grca -DWORK=scratch/dir -P service_follow_smoke.cmake
# WORK is emptied first and left behind for inspection.
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# Runs `grca ARGN` in WORK and stops the gate unless it exits 0; the
# standard output and error go to OUT_VAR.
function(run_grca out_var)
  execute_process(COMMAND "${GRCA}" ${ARGN} WORKING_DIRECTORY "${WORK}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "grca ${ARGN}: exit status ${rc}\n${out}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# Reads WORK/dump-follow/NAME.json into OUT_VAR; stops unless it parses.
function(read_dump out_var name)
  file(READ "${WORK}/dump-follow/${name}.json" text)
  string(JSON kind ERROR_VARIABLE json_error TYPE "${text}")
  if(json_error)
    message(FATAL_ERROR "${name}.json is not valid JSON: ${json_error}")
  endif()
  set(${out_var} "${text}" PARENT_SCOPE)
endfunction()

# Returns in OUT_VAR whether any element of array ARRAY in JSON has MEMBER
# equal to VALUE (booleans read as ON/OFF).
function(any_member out_var json array member value)
  set(found FALSE)
  string(JSON count LENGTH "${json}" ${array})
  if(count GREATER 0)
    math(EXPR last "${count} - 1")
    foreach(i RANGE ${last})
      string(JSON got GET "${json}" ${array} ${i} ${member})
      if(got STREQUAL value)
        set(found TRUE)
      endif()
    endforeach()
  endif()
  set(${out_var} ${found} PARENT_SCOPE)
endfunction()

run_grca(out simulate --study bgp --out smoke-data --days 3 --symptoms 100)
run_grca(log serve --study bgp --data smoke-data --follow --rate max
         --idle-ticks 60 --api-dump dump-follow --once)
file(WRITE "${WORK}/follow.log" "${log}")
if(NOT log MATCHES "injected alert events")
  message(FATAL_ERROR "follow.log lacks 'injected alert events'")
endif()

read_dump(alerts alerts)
string(JSON synthesized GET "${alerts}" events_synthesized)
if(NOT synthesized GREATER 0)
  message(FATAL_ERROR "no alarm events injected")
endif()
any_member(feed_silent "${alerts}" alarms rule feed-silent)
if(NOT feed_silent)
  message(FATAL_ERROR "no feed-silent alarm in alerts.json")
endif()

read_dump(health health)
string(JSON active GET "${health}" alarms_active)
if(NOT active GREATER 0)
  message(FATAL_ERROR "no active alarms after silence")
endif()
any_member(silent "${health}" feeds silent ON)
if(NOT silent)
  message(FATAL_ERROR "no silent feed in health.json")
endif()

read_dump(breakdown breakdown)
string(FIND "${breakdown}" "missing-data" at)
if(at EQUAL -1)
  message(FATAL_ERROR
          "injected alarm evidence absent from the diagnosis breakdown")
endif()
