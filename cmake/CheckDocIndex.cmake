# Documentation-coherence lint (the docs-side complement of
# CheckFlagDocs.cmake). Three drift modes, each fatal:
#
#   1. An unindexed page: every docs/*.md must be listed in README.md's
#      documentation index table.
#   2. A dangling intra-repo link: every relative markdown link in
#      README.md, DESIGN.md, and docs/*.md must resolve to a file that
#      exists.
#   3. A phantom counter: every backticked token in the docs that looks
#      like a registered counter (the Counters.def family prefixes) must
#      actually be registered in src/support/Counters.def.
#
# Run by ctest (check_doc_index in tools/CMakeLists.txt) and by the CI
# docs-lint job:
#
#   cmake -DSRCDIR=<repo root> -P CheckDocIndex.cmake

cmake_minimum_required(VERSION 3.16)

if(NOT DEFINED SRCDIR)
  message(FATAL_ERROR "CheckDocIndex.cmake needs -DSRCDIR=<repo root>")
endif()
# file(GLOB ... RELATIVE) matches nothing against a relative root such as
# the CI step's `-DSRCDIR=.`.
get_filename_component(SRCDIR "${SRCDIR}" ABSOLUTE)

set(Problems "")

# --- 1. Every docs page is indexed in README.md ------------------------

file(READ ${SRCDIR}/README.md Readme)
file(GLOB DocPages RELATIVE ${SRCDIR} ${SRCDIR}/docs/*.md)
list(LENGTH DocPages NumPages)
if(NumPages EQUAL 0)
  message(FATAL_ERROR "no docs/*.md pages found under ${SRCDIR}")
endif()
foreach(Page ${DocPages})
  string(FIND "${Readme}" "${Page}" Found)
  if(Found EQUAL -1)
    list(APPEND Problems
         "unindexed page: ${Page} is not listed in README.md's index")
  endif()
endforeach()

# --- 2. No dangling intra-repo markdown links --------------------------

file(GLOB LintFiles RELATIVE ${SRCDIR}
     ${SRCDIR}/README.md ${SRCDIR}/DESIGN.md ${SRCDIR}/docs/*.md)
foreach(File ${LintFiles})
  file(READ ${SRCDIR}/${File} Text)
  get_filename_component(Dir ${SRCDIR}/${File} DIRECTORY)
  string(REGEX MATCHALL "\\]\\(([^()]+)\\)" Links "${Text}")
  # Strip the ]( … ) delimiters across the whole match list first —
  # elements starting with "]" defeat CMake's own list splitting.
  string(REPLACE "](" "" Links "${Links}")
  string(REPLACE ")" "" Links "${Links}")
  foreach(Target IN LISTS Links)
    # Strip an anchor suffix; skip pure anchors and external URLs.
    string(REGEX REPLACE "#.*$" "" Target "${Target}")
    if(Target STREQUAL "" OR Target MATCHES "^[a-z][a-z0-9+.-]*:")
      continue()
    endif()
    if(IS_ABSOLUTE "${Target}")
      list(APPEND Problems
           "absolute link in ${File}: (${Target}) — use a relative path")
    elseif(NOT EXISTS ${Dir}/${Target})
      list(APPEND Problems
           "dangling link in ${File}: (${Target}) resolves to nothing")
    endif()
  endforeach()
endforeach()

# --- 3. Backticked counter tokens all exist in Counters.def ------------

file(STRINGS ${SRCDIR}/src/support/Counters.def CounterLines
     REGEX "IPCP_COUNTER\\(")
set(Counters "")
foreach(Line ${CounterLines})
  string(REGEX REPLACE ".*IPCP_COUNTER\\(([a-z0-9_]+).*" "\\1" Name
         "${Line}")
  list(APPEND Counters ${Name})
endforeach()
list(LENGTH Counters NumCounters)
if(NumCounters LESS 10)
  message(FATAL_ERROR
          "only ${NumCounters} counters parsed from Counters.def — "
          "the registry regex is broken")
endif()

# Tokens that share a counter-family prefix but are deliberately not
# counters (wire-protocol keys documented in docs/SERVICE.md).
set(NotCounters prop_evals)

foreach(File ${LintFiles})
  file(READ ${SRCDIR}/${File} Text)
  string(REGEX MATCHALL
         "`(time|cg|rjf|jf|prop|ctx|sccp|cp|opt|guard|cache)_[a-z0-9_]+`"
         Tokens "${Text}")
  list(REMOVE_DUPLICATES Tokens)
  foreach(Token ${Tokens})
    string(REGEX REPLACE "`" "" Name "${Token}")
    if(NOT Name IN_LIST Counters AND NOT Name IN_LIST NotCounters)
      list(APPEND Problems
           "phantom counter in ${File}: \`${Name}\` is not registered "
           "in src/support/Counters.def")
    endif()
  endforeach()
endforeach()

if(Problems)
  list(JOIN Problems "\n  " Pretty)
  message(FATAL_ERROR "documentation lint failed:\n  ${Pretty}")
endif()
message(STATUS
        "${NumPages} docs pages indexed, links resolve, counter tokens "
        "match Counters.def (${NumCounters} registered)")
