# Runs `uoi lasso --csv CSV FLAG VALUE` and passes only when the CLI exits
# with status 2 and names FLAG on stderr.
#   cmake -DUOI=<uoi> -DFLAG=--b1 -DVALUE=3x -DCSV=<missing file> -P <this>
execute_process(
  COMMAND ${UOI} lasso --csv ${CSV} ${FLAG} ${VALUE}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
string(FIND "${err}" "${FLAG}" at)
if(NOT status EQUAL 2 OR at EQUAL -1)
  message(FATAL_ERROR
    "uoi lasso ${FLAG} ${VALUE}: exit ${status}, stderr:\n${err}")
endif()
