# CLI round trip of the .xm format (cli_xm_roundtrip_preserves_bits): saves
# a generated matrix with `analyze --save-xm`, loads it back with
# `analyze --load-xm` as written and as a CRLF copy, and requires all three
# runs to report the same proposed-hybrid control-bit total.
# Inputs: -DCLI, -DWORK_DIR.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Runs the CLI with the given arguments and returns its control-bit line.
function(control_bits_line out_var)
  execute_process(
    COMMAND "${CLI}" analyze ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "analyze ${ARGN} failed (rc=${rc}): ${out}${err}")
  endif()
  string(REGEX MATCH "proposed hybrid bits[^\n]*" line "${out}")
  if(line STREQUAL "")
    message(FATAL_ERROR "analyze ${ARGN} printed no control-bit line: ${out}")
  endif()
  set(${out_var} "${line}" PARENT_SCOPE)
endfunction()

set(xm "${WORK_DIR}/saved.xm")
control_bits_line(saved --chains 12 --length 40 --patterns 300
                  --density 0.03 --seed 5 --save-xm "${xm}")

file(READ "${xm}" text)
string(REPLACE "\n" "\r\n" crlf_text "${text}")
file(WRITE "${WORK_DIR}/crlf.xm" "${crlf_text}")

control_bits_line(loaded --load-xm "${xm}")
control_bits_line(loaded_crlf --load-xm "${WORK_DIR}/crlf.xm")

if(NOT loaded STREQUAL saved OR NOT loaded_crlf STREQUAL saved)
  message(FATAL_ERROR "control bits differ:\n  saved: ${saved}\n"
                      "  loaded: ${loaded}\n  loaded CRLF: ${loaded_crlf}")
endif()
message("round trip preserved: ${saved}")
