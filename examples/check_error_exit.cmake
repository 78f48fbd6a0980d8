# Error-path contract of the examples: an unreadable or corrupt input
# must exit non-zero with a TraceError-derived message on stderr — a
# report rendered over partial state is the bug this guards against.
#
# Invoked by ctest:
#   cmake -DEXAMPLE=<path-to-example_offline_postprocess>
#         -DWORK_DIR=<scratch dir> -P check_error_exit.cmake

if(NOT EXAMPLE OR NOT WORK_DIR)
    message(FATAL_ERROR "EXAMPLE and WORK_DIR must be defined")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")

# Case 1: missing trace file.
execute_process(
    COMMAND "${EXAMPLE}" --replay "${WORK_DIR}/no_such_file.trace"
    RESULT_VARIABLE missing_rc
    OUTPUT_VARIABLE missing_out
    ERROR_VARIABLE missing_err)
if(missing_rc EQUAL 0)
    message(FATAL_ERROR
        "replay of a missing trace exited 0; stdout:\n${missing_out}")
endif()
if(NOT missing_err MATCHES "error:")
    message(FATAL_ERROR
        "replay of a missing trace printed no error message; "
        "stderr:\n${missing_err}")
endif()

# Case 2: garbage bytes where a trace is expected (bad magic).
string(REPEAT "this is not a sigil trace! " 64 garbage)
file(WRITE "${WORK_DIR}/corrupt.trace" "${garbage}")
execute_process(
    COMMAND "${EXAMPLE}" --replay "${WORK_DIR}/corrupt.trace"
    RESULT_VARIABLE corrupt_rc
    OUTPUT_VARIABLE corrupt_out
    ERROR_VARIABLE corrupt_err)
if(corrupt_rc EQUAL 0)
    message(FATAL_ERROR
        "replay of a corrupt trace exited 0; stdout:\n${corrupt_out}")
endif()
if(NOT corrupt_err MATCHES "error:")
    message(FATAL_ERROR
        "replay of a corrupt trace printed no error message; "
        "stderr:\n${corrupt_err}")
endif()

# Case 3: retired trace formats (text, SGB1, SGB2). Only SGB3 is
# readable; each of these salvages zero events and must fail the run.
set(retired_text "sigil-trace\t1\np\tdedup\nF\t0\tmain\nE\t0\nL\nend\n")
set(retired_names text sgb1 sgb2)
set(retired_heads "${retired_text}" "SGB1" "SGB2")
foreach(i RANGE 2)
    list(GET retired_names ${i} name)
    list(GET retired_heads ${i} head)
    file(WRITE "${WORK_DIR}/retired_${name}.trace" "${head}${garbage}")
    execute_process(
        COMMAND "${EXAMPLE}" --replay "${WORK_DIR}/retired_${name}.trace"
        RESULT_VARIABLE retired_rc
        OUTPUT_VARIABLE retired_out
        ERROR_VARIABLE retired_err)
    if(retired_rc EQUAL 0)
        message(FATAL_ERROR
            "replay of a retired ${name} trace exited 0; "
            "stdout:\n${retired_out}")
    endif()
    if(NOT retired_err MATCHES "error:")
        message(FATAL_ERROR
            "replay of a retired ${name} trace printed no error "
            "message; stderr:\n${retired_err}")
    endif()
endforeach()

message(STATUS "error-path exit codes verified "
               "(missing rc=${missing_rc}, corrupt rc=${corrupt_rc}, "
               "retired formats rejected)")
