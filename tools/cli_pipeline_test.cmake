# CLI pipeline smoke test: calibrate -> fit -> predict -> simulate must all
# succeed and chain through the on-disk text formats.
file(MAKE_DIRECTORY ${WORK_DIR})

function(run_step)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "step failed (${rc}): ${ARGN}\n${out}\n${err}")
  endif()
  set(step_out "${out}" PARENT_SCOPE)
endfunction()

run_step(${FTBESST} calibrate --out . --samples 5)
run_step(${FTBESST} fit --data lulesh_timestep.csv --out lulesh_timestep.model)
run_step(${FTBESST} fit --data ckpt_l1.csv --out ckpt_l1.model)
run_step(${FTBESST} predict --model lulesh_timestep.model --params 15,512)
run_step(${FTBESST} crossval --data ckpt_l1.csv --folds 4)
run_step(${FTBESST} simulate --models . --epr 15 --ranks 512 --plan L1:40
         --trials 5)

# --obs-out must produce the three observability artifacts, and the trace
# must be Chrome-trace JSON (Perfetto-loadable) with at least one event.
run_step(${FTBESST} simulate --models . --epr 15 --ranks 512 --plan L1:40
         --trials 5 --obs-out obs)
foreach(artifact metrics.json trace.json summary.txt)
  if(NOT EXISTS ${WORK_DIR}/obs/${artifact})
    message(FATAL_ERROR "--obs-out did not write obs/${artifact}")
  endif()
endforeach()
file(READ ${WORK_DIR}/obs/trace.json trace_json)
if(NOT trace_json MATCHES "\"traceEvents\"")
  message(FATAL_ERROR "obs/trace.json is not a Chrome trace: ${trace_json}")
endif()
if(NOT trace_json MATCHES "\"ph\":\"X\"")
  message(FATAL_ERROR "obs/trace.json contains no complete events")
endif()
file(READ ${WORK_DIR}/obs/metrics.json metrics_json)
foreach(counter "pool.tasks" "bsp.runs" "mc.trials")
  if(NOT metrics_json MATCHES "\"${counter}\"")
    message(FATAL_ERROR "obs/metrics.json is missing ${counter}")
  endif()
endforeach()

# search sends its flags to the search op as one JSON request: a scenario
# name with a quote and a tab must come back intact in an ok reply.
run_step(${FTBESST} search --models . --scenarios "say \"hi\"\tnow=L1:40"
         --trials 2 --budget-frac 0.5)
string(FIND "${step_out}" "\"ok\":true" ok_at)
string(FIND "${step_out}" "\"scenario\":\"say \\\"hi\\\"\\tnow\"" name_at)
if(ok_at LESS 0 OR name_at LESS 0)
  message(FATAL_ERROR "search reply lacks ok or the scenario name: ${step_out}")
endif()

file(WRITE ${WORK_DIR}/faults.csv
     "100,3,loss\n250,1,crash\n380,7,loss\n505,2,loss\n660,4,loss\n")
run_step(${FTBESST} faultlog --log faults.csv --nodes 16)

# Prediction-service smoke: serve the fitted models over a unix socket in
# the background, answer a predict and a cold + cached simulate, drain via
# the shutdown op (exit 0), then again via SIGTERM (exit 0).
file(WRITE ${WORK_DIR}/svc_smoke.sh [=[#!/bin/sh
set -e
FTBESST="$1"
SOCK="$2"

wait_ready() {
  i=0
  until "$FTBESST" client --socket "$SOCK" --request '{"op":"ping"}' \
      >/dev/null 2>&1; do
    i=$((i+1))
    if [ "$i" -ge 150 ]; then
      echo "server never became ready" >&2
      kill "$3" 2>/dev/null || true
      exit 1
    fi
    sleep 0.1
  done
}

"$FTBESST" serve --models . --socket "$SOCK" 2>serve1.log &
pid=$!
wait_ready "$FTBESST" "$SOCK" "$pid"

"$FTBESST" client --socket "$SOCK" \
  --request '{"op":"predict","kernel":"lulesh_timestep","params":[15,512]}' \
  | grep -q '"ok":true'

REQ='{"op":"simulate","epr":15,"ranks":512,"plan":"L1:40","timesteps":100,"trials":5}'
cold=$("$FTBESST" client --socket "$SOCK" --request "$REQ")
echo "$cold" | grep -q '"cached":false'
hot=$("$FTBESST" client --socket "$SOCK" --request "$REQ")
echo "$hot" | grep -q '"cached":true'

"$FTBESST" client --socket "$SOCK" --request '{"op":"shutdown"}' \
  | grep -q '"draining":true'
wait "$pid"   # graceful drain: the daemon itself must exit 0

# Round two: the same drain path must trigger from SIGTERM.
"$FTBESST" serve --models . --socket "$SOCK" 2>serve2.log &
pid=$!
wait_ready "$FTBESST" "$SOCK" "$pid"
kill -TERM "$pid"
wait "$pid"
echo "svc smoke passed"
]=])
run_step(sh svc_smoke.sh ${FTBESST} svc.sock)
