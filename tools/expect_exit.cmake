# Runs the CLI once and requires an exact exit code and a stderr/stdout
# match, for usage errors whose exit code is part of the contract.
# Inputs: -DCLI, -DCLI_ARGS (space-separated), -DEXPECT_RC, -DEXPECT_REGEX.
separate_arguments(args UNIX_COMMAND "${CLI_ARGS}")
execute_process(
  COMMAND "${CLI}" ${args}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("${out}${err}")
if(NOT rc EQUAL EXPECT_RC)
  message(FATAL_ERROR "expected exit code ${EXPECT_RC}, got ${rc}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT_REGEX}")
  message(FATAL_ERROR "output does not match '${EXPECT_REGEX}'")
endif()
