# Runs the built `clo` on bad command lines: each must be rejected with exit
# status 2 and a message naming the bad argument, while a plain argument
# stays a script path and known options still run.
#
#   cmake -DCLO=<path to clo> -P clo_cli_test.cmake

function(expect_exit want_status want_message)
  execute_process(COMMAND "${CLO}" ${ARGN}
                  RESULT_VARIABLE status
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  TIMEOUT 60)
  if(NOT status STREQUAL want_status)
    message(FATAL_ERROR
            "clo ${ARGN}: exit status ${status}, want ${want_status}\n"
            "stdout: ${out}\nstderr: ${err}")
  endif()
  string(FIND "${err}" "${want_message}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR
            "clo ${ARGN}: stderr lacks \"${want_message}\"\nstderr: ${err}")
  endif()
endfunction()

expect_exit(2 "unknown option '--bogus'" --bogus)
expect_exit(2 "unknown option '--no-simd'" --threads 1 --no-simd -c "help")
expect_exit(2 "unknown kernel target 'bogus'" --kernel-target bogus -c "help")
expect_exit(1 "cannot open no_such_script.clo" no_such_script.clo)
expect_exit(0 "" --threads 1 --kernel-target scalar -c "help")
