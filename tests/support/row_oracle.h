// Row-oriented reference derivations for the columnar store. Each function
// recomputes one record's (or one pair's) features straight from the raw
// values with the scalar text:: routines, so the tests and the scalar
// baseline of bench/micro_kernels can check data::ColumnarStore and the
// batch kernels against an independent path.
#ifndef RLBENCH_TESTS_SUPPORT_ROW_ORACLE_H_
#define RLBENCH_TESTS_SUPPORT_ROW_ORACLE_H_

#include <string>
#include <vector>

#include "data/record.h"
#include "data/task.h"
#include "text/tokenizer.h"

namespace rlbench::oracle {

/// Token set over all attribute values.
text::TokenSet TokenSetAll(const data::Record& record);

/// Token set of one attribute value.
text::TokenSet TokenSetAttr(const data::Record& record, size_t attr);

/// q-gram set of the concatenated values, capped at
/// ColumnarStore::kQGramCharCap characters.
text::TokenSet QGramSetAll(const data::Record& record, int q);

/// q-gram set of one attribute value, capped likewise.
text::TokenSet QGramSetAttr(const data::Record& record, size_t attr, int q);

/// Magellan feature vector of one pair through the scalar similarity
/// functions; matchers::MagellanFeaturesColumnar must equal it bit for bit.
std::vector<float> MagellanFeatures(const data::Table& left,
                                    const data::Table& right,
                                    const data::LabeledPair& pair);

}  // namespace rlbench::oracle

#endif  // RLBENCH_TESTS_SUPPORT_ROW_ORACLE_H_
