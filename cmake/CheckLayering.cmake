# Library-layering lint: every arrow in docs/ARCHITECTURE.md's layer
# diagram points downward. Each src/<dir> builds the static library
# ipcp_<dir>; this script reads the target_link_libraries lines of
# src/*/CMakeLists.txt and fails on either of two drift modes:
#
#   1. A cycle in the link graph (a library that reaches itself through
#      its own link dependencies).
#   2. An upward include: a `#include "<other>/..."` in src/<dir> that
#      names a directory whose library is not in ipcp_<dir>'s transitive
#      link closure. Such a header compiles (every target sees all of
#      src/), but its symbols resolve only by accident of link order.
#
# Run by ctest (check_layering in tools/CMakeLists.txt) and by the CI
# docs-lint job:
#
#   cmake -DSRCDIR=<repo root> -P CheckLayering.cmake

cmake_minimum_required(VERSION 3.16)

if(NOT DEFINED SRCDIR)
  message(FATAL_ERROR "CheckLayering.cmake needs -DSRCDIR=<repo root>")
endif()
get_filename_component(SRCDIR "${SRCDIR}" ABSOLUTE)

set(Problems "")

# --- The link graph ----------------------------------------------------

file(GLOB LayerLists ${SRCDIR}/src/*/CMakeLists.txt)
set(Layers "")
foreach(List ${LayerLists})
  get_filename_component(Dir ${List} DIRECTORY)
  get_filename_component(Layer ${Dir} NAME)
  list(APPEND Layers ${Layer})

  file(READ ${List} Text)
  if(NOT Text MATCHES "add_library\\(ipcp_${Layer}[ \t\r\n]")
    list(APPEND Problems
         "src/${Layer}/CMakeLists.txt does not define ipcp_${Layer}")
  endif()
  set(Deps_ipcp_${Layer} "")
  string(REGEX MATCHALL "target_link_libraries\\([^)]*\\)" Calls "${Text}")
  foreach(Call IN LISTS Calls)
    string(REGEX MATCHALL "ipcp_[a-z]+" Names "${Call}")
    list(POP_FRONT Names Target)
    if(NOT Target STREQUAL "ipcp_${Layer}")
      continue()
    endif()
    list(APPEND Deps_ipcp_${Layer} ${Names})
  endforeach()
endforeach()
list(LENGTH Layers NumLayers)
if(NumLayers LESS 2)
  message(FATAL_ERROR "only ${NumLayers} layers found under ${SRCDIR}/src")
endif()

# Transitive closure per library, by worklist.
foreach(Layer ${Layers})
  set(Closure "")
  set(Work ${Deps_ipcp_${Layer}})
  while(Work)
    list(POP_FRONT Work Lib)
    if(Lib IN_LIST Closure)
      continue()
    endif()
    list(APPEND Closure ${Lib})
    list(APPEND Work ${Deps_${Lib}})
  endwhile()
  set(Closure_ipcp_${Layer} ${Closure})
endforeach()

# --- 1. No cycles ------------------------------------------------------

foreach(Layer ${Layers})
  if("ipcp_${Layer}" IN_LIST Closure_ipcp_${Layer})
    set(Path "")
    foreach(Dep ${Deps_ipcp_${Layer}})
      if(Dep STREQUAL "ipcp_${Layer}" OR "ipcp_${Layer}" IN_LIST Closure_${Dep})
        list(APPEND Path ${Dep})
      endif()
    endforeach()
    list(JOIN Path ", " Pretty)
    list(APPEND Problems
         "link cycle: ipcp_${Layer} reaches itself through ${Pretty}")
  endif()
endforeach()

# --- 2. No upward includes ---------------------------------------------

foreach(Layer ${Layers})
  file(GLOB Sources ${SRCDIR}/src/${Layer}/*.h ${SRCDIR}/src/${Layer}/*.cpp
       ${SRCDIR}/src/${Layer}/*.def)
  foreach(Source ${Sources})
    file(STRINGS ${Source} Includes
         REGEX "^[ \t]*#[ \t]*include[ \t]+\"[a-z]+/")
    foreach(Line IN LISTS Includes)
      string(REGEX REPLACE ".*\"([a-z]+)/([^\"]*)\".*" "\\1" Other "${Line}")
      string(REGEX REPLACE ".*\"([^\"]*)\".*" "\\1" Header "${Line}")
      if(Other STREQUAL Layer OR NOT Other IN_LIST Layers)
        continue()
      endif()
      if(NOT "ipcp_${Other}" IN_LIST Closure_ipcp_${Layer})
        file(RELATIVE_PATH Rel ${SRCDIR} ${Source})
        list(APPEND Problems "upward include: ${Rel} includes \"${Header}\", \
but ipcp_${Layer} does not link ipcp_${Other}")
      endif()
    endforeach()
  endforeach()
endforeach()

if(Problems)
  list(JOIN Problems "\n  " Pretty)
  message(FATAL_ERROR "layering lint failed:\n  ${Pretty}")
endif()
message(STATUS
        "${NumLayers} layers, link graph acyclic, every cross-layer "
        "include is in its library's link closure")
