/**
 * @file
 * The 23 evaluation applications of Table 6, transcribed as workload
 * models: framework, SLOC, data size, and the unique/total API call
 * counts per API type. The workload generator turns these into
 * concrete call traces with the pipeline structure of Fig. 6.
 */

#ifndef FREEPART_APPS_APP_MODELS_HH
#define FREEPART_APPS_APP_MODELS_HH

#include <string>
#include <vector>

#include "fw/api_types.hh"

namespace freepart::apps {

/** Unique/total API-call counts for one API type (Table 6 columns). */
struct TypeUsage {
    uint32_t unique = 0; //!< distinct APIs of this type used
    uint32_t total = 0;  //!< call sites of this type
};

/** One evaluation application (one row of Table 6). */
struct AppModel {
    int id;                  //!< paper sample id (1..23)
    std::string name;        //!< project name
    fw::Framework framework; //!< main framework
    std::string lang;        //!< implementation language
    uint32_t sloc;           //!< source lines of code
    uint64_t sizeBytes;      //!< input data size
    TypeUsage loading;
    TypeUsage processing;
    TypeUsage visualizing;
    TypeUsage storing;
    std::string description;

    /** Total call sites across all types. */
    uint32_t
    totalCalls() const
    {
        return loading.total + processing.total + visualizing.total +
               storing.total;
    }
};

/** All 23 applications (Table 6 rows, in paper order). */
const std::vector<AppModel> &appModels();

/** Look up one application by its paper sample id. */
const AppModel &appModel(int id);

} // namespace freepart::apps

#endif // FREEPART_APPS_APP_MODELS_HH
